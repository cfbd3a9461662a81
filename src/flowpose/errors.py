"""Exception types shared across the library. Each carries the exit code
and the stderr label with which the `flowpose` command reports it."""


class FlowPoseError(Exception):
    """Base class for library errors. Keyword arguments name the numbers
    that tripped the error and become its attributes; the message alone is
    what the command prints."""
    exit_code, label = 2, "error"

    def __init__(self, message, **numbers):
        super().__init__(message)
        self.__dict__.update(numbers)


class UsageError(FlowPoseError, ValueError):
    """Bad flag, config value or argument (exit 2); a ValueError, so that
    argparse reports it when a `type=` converter raises it."""


class InsufficientDataError(FlowPoseError):
    """Too few valid pixels / matched samples to proceed (exit 5)."""
    exit_code, label = 5, "insufficient data"


class DegenerateGeometryError(FlowPoseError):
    """Singular, ill-conditioned or overflowing numerics (exit 4)."""
    exit_code, label = 4, "degenerate geometry"


class CheiralityError(DegenerateGeometryError):
    """A point mapped behind or onto the camera plane (exit 4)."""


class RasterFormatError(FlowPoseError):
    """Malformed input file, or rasters of different sizes (exit 3)."""
    exit_code, label = 3, "format error"
