"""The package's one exception class of its own, in a module of its own so
that the numeric paths can raise and catch it without loading `field`."""

__all__ = ["PoleError"]


class PoleError(ArithmeticError):
    """Raised when a denominator vanishes (exactly or within pole tolerance)."""
