"""The package's two exception types, one per CLI exit code."""


class InputError(ValueError):
    """An argument, shape, file or checkpoint is invalid (CLI exit code 2)."""


class NumericalError(RuntimeError):
    """A computation hit a non-finite value, such as a diverged training loss
    or an overflowing attribution path (CLI exit code 3)."""
