"""Exception types shared across the package."""


class ConesignError(Exception):
    """Base class for all package-specific errors."""


class RingMismatchError(ConesignError):
    """Operands live in different polynomial rings."""


class PolynomialSyntaxError(ConesignError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(PolynomialSyntaxError):
    pass


class InfiniteColengthError(ConesignError):
    """A finite-colength quotient was expected but the quotient is infinite-dimensional."""


class PointNotOnVarietyError(ConesignError):
    """The supplied rational point does not lie on the scheme."""


class EuUnsupportedError(ConesignError):
    """No implemented Euler-obstruction rule applies at the point."""


class PrimalityUndecidedError(ConesignError):
    """Desk-scale primality certification failed and the caller did not assert primality."""


class BoundExceededError(ConesignError):
    """A configured resource bound (pair count, enumeration size, ...) was exceeded."""


class DegenerateDrawError(ConesignError):
    """Repeated randomized draws stayed degenerate; results would be untrustworthy."""
