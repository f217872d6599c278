"""Immutable value records, the base of the package's data classes.

A record names its fields in __slots__, in constructor order, and its
__init__ checks them and sets them through object.__setattr__;
assigning or deleting a field afterwards raises AttributeError.  Records
of one class compare and hash field by field, and replace(**changes)
builds a changed copy through the constructor, so its checks run again.
Nothing is generated when a class is defined, so defining one costs no
more than any other class.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild the record through its constructor
        return self.__class__, self._values()

    def replace(self, **changes):
        """A copy with the named fields changed; an unknown name raises
        TypeError, as the constructor does."""
        return self.__class__(**{**dict(zip(self.__slots__, self._values())), **changes})
