"""Shared exception types, the one integer-argument check, quoted for refused
text, and the bases of the library's value objects.

The split matters to the command line tool: parse problems and violated
preconditions map to different process exit codes.  Every integer
argument of the library goes through check_int.

The library's objects are immutable values.  A class of them that is not a
frozen dataclass derives from Immutable and fills its slots once, through
object.__setattr__.  One whose instances compare by content derives from
Value and states its key once, in _key(), which equality and hash both
read.  Only FormalScalar, equal to ints and Fractions, keeps its own.
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
    """repr(value) cut to 60 characters, so that a refusal stays one short line;
    an int past int's digit limit by its size, and a container of one by its type."""
    try:
        shown = repr(value)
    except ValueError:
        return (f"<int of {value.bit_length()} bits>" if isinstance(value, int)
                else f"<{type(value).__name__}>")
    return shown[:60] + ("..." if len(shown) > 60 else "")


class Immutable:
    """A base that refuses assignment and deletion of every attribute."""

    __slots__ = ()

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __setstate__(self, state):
        """Fill the slots of a copy or an unpickled object: (None, {slot: value})."""
        for slot, value in state[1].items():
            object.__setattr__(self, slot, value)


class Value(Immutable):
    """Equal to an object of the same class with an equal _key(), hashed and,
    unless its class says otherwise, shown by it."""

    __slots__ = ()

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}({self._key()!r})"
