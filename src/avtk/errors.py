"""Exception types shared across the package.

The split matters to the command line tool: parse problems and violated
preconditions map to different process exit codes.
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

