"""Shared exception types, the one integer-argument check, and quoted for refused text.

The split matters to the command line tool: parse problems and violated
preconditions map to different process exit codes.  Every integer
argument of the library goes through check_int.
"""


class AvtkError(Exception):
    """Base class for all errors raised by this package."""


class ScalarParseError(AvtkError):
    """A scalar expression could not be parsed.

    ``position`` is the 0-based offset into the source text.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class DocumentError(AvtkError):
    """A JSON document is malformed or refers to unknown fields."""


class GeneratorMismatchError(AvtkError):
    """Two scalars over different generator sets were combined."""


class PreconditionError(AvtkError):
    """An operation was called on input violating its stated precondition."""


def check_int(what: str, value, least=None) -> None:
    """Raise PreconditionError, naming ``what``, unless value is an int (not
    a bool) and, when least is given, at least least."""
    if type(value) is not int:  # bool is an int subclass
        raise PreconditionError(f"{what} must be an int, not {type(value).__name__}")
    if least is not None and value < least:
        raise PreconditionError(f"{what} must be at least {least}")


def quoted(value) -> str:
    """repr(value) cut to 60 characters, so that a refusal stays one short line."""
    shown = repr(value)
    return shown[:60] + ("..." if len(shown) > 60 else "")
