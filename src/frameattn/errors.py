"""Exception taxonomy shared across the package.

Each class carries the exit code the CLI returns for it: ``exit_code`` 1 for
configuration, usage, shape and checkpoint errors, 2 for DataError
(ParseError included), 3 for NumericError.  A MemoryError is not in the
taxonomy, since any allocation can raise it; the CLI reports it as
``error: out of memory: ...`` and exits 1.
"""


class FrameAttnError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ShapeError(FrameAttnError):
    """Operand shapes violate an operation's contract."""


class ConfigError(FrameAttnError):
    """Invalid or inconsistent configuration, or a malformed command line."""


class DataError(FrameAttnError):
    """Input data violates the expected layout or value ranges."""

    exit_code = 2


class ParseError(DataError):
    """Malformed CSV content; message carries file and line."""


class CheckpointError(FrameAttnError):
    """Unreadable, truncated, or incompatible checkpoint file."""


class NumericError(FrameAttnError):
    """Non-finite values encountered during optimization."""

    exit_code = 3
