"""Exception types shared across the package: one class per kind of fault,
so catching a class catches that fault from every entry point."""


class FramepressError(Exception):
    """Base class for every error this package raises on purpose."""


class ShapeError(FramepressError, ValueError):
    """An array had the wrong rank or a zero-length axis, or shapes that
    must agree did not."""


class ParameterError(FramepressError, ValueError):
    """A value or type was outside its documented range: a count, a real
    number, an array's dtype, token indices, attention rows, a stage plan,
    calibration points, an output path."""


class NumericError(FramepressError, ArithmeticError):
    """A computation produced or received non-finite values, or values too
    large for their storage."""


class FormatError(FramepressError, ValueError):
    """A file's bytes or text did not conform to its format: an FTV1 tensor,
    a JSON document, a checkpoint, an index sidecar, a manifest (an empty
    one too).

    ``offset`` is the byte position at which decoding failed, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset
