"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed edge-list text; carries the offending 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NotApplicableError(Exception):
    """A bound or formula was queried outside its applicability range."""


class SearchBudgetError(Exception):
    """An exhaustive search would exceed the configured budget."""


class MalformedCertificateError(Exception):
    """A drawing certificate is structurally broken (not merely invalid)."""


class ConstructionIntegrityError(Exception):
    """An internal identity check or a certificate re-verification failed."""
