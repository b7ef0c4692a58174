"""Shared exception types."""

__all__ = ["DimensionMismatchError", "CapacityError", "NotDeterministicError"]


class DimensionMismatchError(ValueError):
    """Operands have incompatible lengths or register layouts."""


class CapacityError(ValueError):
    """Requested size exceeds a configured safety cap."""


class NotDeterministicError(RuntimeError):
    """A measurement expected to be certain was not a point mass."""
