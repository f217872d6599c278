"""Spans around the public functions of `uncrossed`, added from outside.

Modules import each other's functions by name (`from .oracle import
exact_h`), so a wrapper replaces every module's binding of the function,
not only the defining one.  `Graph.__post_init__` (edge validation) is
wrapped on the class.  A span's self time is its duration minus the
durations of the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

# Per-call work for the layers whose rate is reported.
WORK = {
    "oracle.verify_certificate": lambda args, result: args[0].graph.m,
    "embedding.trace_faces": lambda args, result: 2 * args[0].graph.m,
    "oracle.maximal_feasible_sets": lambda args, result: len(result),
    "graphs.Graph.validate": lambda args, result: len(args[0].edges),
}

MODULES = ("graphs", "embedding", "oracle", "bounds", "construction", "render", "cli")


class Tracer:
    """Aggregates spans in memory: name -> [calls, seconds, self seconds, work]."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self._children: list[float] = []  # time of wrapped callees, per open span

    def wrap(self, name: str, fn):
        stats, children, work = self.stats, self._children, WORK.get(name)
        record = stats.setdefault(name, [0, 0.0, 0.0, 0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                inner = children.pop()
                if children:
                    children[-1] += took
                record[0] += 1
                record[1] += took
                record[2] += took - inner
            if work is not None:
                record[3] += work(args, result)
            return result

        return traced

    def install(self, package: str = "uncrossed") -> None:
        """Wrap every public function of the package's modules in place."""
        modules = [sys.modules[package]] + [sys.modules[f"{package}.{m}"] for m in MODULES]
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                # generator functions would be timed only until they return a generator
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or inspect.isgeneratorfunction(fn)):
                    continue
                if short == "cli" and attr.startswith("cmd_"):
                    name = "cli." + attr[4:].replace("_", "-")
                else:
                    name = f"{short}.{attr}"
                wrapper = self.wrap(name, fn)
                for other in modules:
                    for other_attr, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, other_attr, wrapper)
        graph_cls = sys.modules[f"{package}.graphs"].Graph
        graph_cls.__post_init__ = self.wrap("graphs.Graph.validate", graph_cls.__post_init__)
