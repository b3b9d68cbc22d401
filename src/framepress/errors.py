"""Exception types shared across the package."""


class FramepressError(Exception):
    """Base class for every error this package raises on purpose."""


class ShapeError(FramepressError, ValueError):
    """A matrix, tensor, or frame had incompatible or empty dimensions."""


class ParameterError(FramepressError, ValueError):
    """An argument was outside its documented range."""


class EmptyInputError(FramepressError, ValueError):
    """An operation received an empty manifest."""


class NumericError(FramepressError, ArithmeticError):
    """A computation produced or received non-finite values."""


class FormatError(FramepressError, ValueError):
    """A binary or text artifact did not conform to its file format.

    ``offset`` is the byte position at which decoding failed, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


class PlanError(FramepressError, ValueError):
    """A stage plan request violated its strategy's stage placement rules."""


class FitError(FramepressError, ValueError):
    """A calibration fit was degenerate (for example, all abscissae equal)."""
