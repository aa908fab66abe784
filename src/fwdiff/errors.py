"""Shared exception types."""


class FWDiffError(Exception):
    """Base class for all errors raised by this package."""


class RingFileError(FWDiffError):
    """Malformed ring file or polynomial expression; carries line/column."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class PresentationError(FWDiffError):
    """Inconsistent ring presentation, morphism, or locus data."""


class OffSchemeError(FWDiffError):
    """A point or prime does not lie on the presented scheme."""


class ZeroDivisorError(FWDiffError):
    """A residue treated as invertible turned out to be a zero divisor.

    Raised during fraction-free elimination when the supplied prime is
    not actually prime; names the offending elements.
    """

    def __init__(self, a, b):
        self.offenders = (a, b)
        super().__init__(
            f"zero divisor detected: ({a}) * ({b}) = 0 in the quotient; "
            "the given ideal is not prime"
        )


class SizeRefusalError(FWDiffError):
    """A brute-force computation would exceed its configured size bound."""


class UnsupportedClassError(FWDiffError):
    """The input is valid but outside the class the method can decide."""
