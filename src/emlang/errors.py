"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Shapes of two arrays are incompatible for the requested operation."""


class InputError(ValueError):
    """An argument violates a precondition (range, emptiness, unknown name)."""


class FormatError(ValueError):
    """A serialized document (checkpoint, CSV) is malformed or incompatible."""


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch, message=None):
        self.epoch = epoch
        super().__init__(message or f"non-finite loss at epoch {epoch}")


class NumericalError(RuntimeError):
    """A numeric routine hit a non-finite intermediate value."""

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"non-finite value at step {step}")


class UnsupportedModelError(ValueError):
    """The model lacks a component the operation requires (e.g. no bottleneck)."""
