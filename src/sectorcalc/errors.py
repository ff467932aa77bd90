"""Exception types shared across the package."""


class SectorcalcError(Exception):
    """Base class for all package errors."""


class SymbolSyntaxError(SectorcalcError):
    """Malformed symbol expression text.

    Carries the 0-based character offset of the offending token.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class UnknownIdentifierError(SymbolSyntaxError):
    """Identifier is not a variable, function or constant of the grammar."""


class DimensionIndexError(SymbolSyntaxError):
    """Variable index exceeds the declared space dimension."""


class NonPeriodicError(SectorcalcError):
    """Symbol is not 2*pi-periodic in a space variable."""


class SymbolDomainError(SectorcalcError):
    """Singular point (branch cut, pole) reachable on the real domain."""


class DerivativeOrderError(SectorcalcError):
    """Requested derivative order exceeds the configured budget."""


class GridMismatchError(SectorcalcError):
    """Operands tabulated on different grids."""


class SingularOperatorError(SectorcalcError):
    """Matrix numerically singular; lambda is (near-)spectrum."""


class ContourError(SectorcalcError):
    """Contour tolerance unreachable, or too coarse to certify a digit of a norm."""


class ConfigError(SectorcalcError):
    """Unreadable or invalid run configuration."""
