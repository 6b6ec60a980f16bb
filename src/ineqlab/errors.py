"""Exception types shared across the laboratory."""

__all__ = ["InputRejected", "NumericalFailure"]


class InputRejected(ValueError):
    """An input violates a documented precondition (shape, symmetry, range...)."""


class NumericalFailure(RuntimeError):
    """A numerical routine failed to converge or broke a postcondition."""
