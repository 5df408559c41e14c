"""Exact scalar arithmetic in a free polynomial ring over Q.

Entries of period matrices are modelled as polynomials with rational
coefficients in a fixed ordered tuple of formal generators.  There are no
relations between generators, no floating point, and no numerical
approximation anywhere: two scalars are equal exactly when their canonical
term maps coincide.  Assumptions such as "the imaginary part of the period
matrix is positive definite" are never used computationally; they are
carried as declarations on the objects that need them.

Monomials are exponent tuples aligned with the generator tuple and ordered
by graded lexicographic order (total degree first, then lexicographic on
exponents).  That order fixes leading terms, canonical string rendering and
the row layout of ``intlinalg.flatten_to_int``: one row per (matrix row,
monomial), monomials ascending.

Outside a scalar a monomial is packed into one int (_packing), so a
product of monomials is a sum of ints and int order is graded-lex order;
the fields are laid out here only.

:func:`monomial_flatten` is the one way from formal matrices to integers:
it puts a matrix over its least common denominator as integer polynomials
``{packed monomial: int}``, a slice.  The systems of ``homs`` and
``ppsearch``, the quotients of ``torus`` and ``flatten_to_int`` all start
from it, so no other module reads a scalar's term map.

Every scalar is canonical: each monomial is a tuple of non-negative ints
as long as the generator tuple, each coefficient is a nonzero
``Fraction``.  Only the public constructor ``FormalScalar(gens, terms)``
validates and normalises its input.  Arithmetic results are canonical by
construction and skip that work: they are built from already clean term
maps by the private ``FormalScalar._trusted``.

>>> gens = GeneratorSet(("a", "b"))
>>> a, b = gens.gens()
>>> (a + b) * (a - b)
FormalScalar('a*a - b*b')
>>> parse_scalar(gens, "(a + 1/2) * b - b/2") == a * b
True
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import add, mul
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import (GeneratorMismatchError, Immutable, PreconditionError, ScalarParseError,
                     Value, check_int, quoted)

Monomial = tuple  # tuple[int, ...], one exponent per generator
Rat = Union[int, Fraction]


def _grlex_key(mono):
    return (sum(mono), mono)


class GeneratorSet(Value):
    """An ordered tuple of named formal generators.

    The order is significant: it fixes the monomial order and therefore
    every canonical form downstream.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        seen = set()
        for name in names:
            if not isinstance(name, str) or not name:
                raise ValueError("generator names must be non-empty strings")
            if not (name[0].isalpha() or name[0] == "_") or not all(
                ch.isalnum() or ch == "_" for ch in name
            ):
                raise ValueError(f"invalid generator name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate generator name {name!r}")
            seen.add(name)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def _key(self):
        return self.names

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def scalar(self, name: str) -> "FormalScalar":
        """The generator ``name`` as a scalar."""
        exps = [0] * len(self.names)
        exps[self.index(name)] = 1
        return FormalScalar._trusted(self, {tuple(exps): Fraction(1)})

    def gens(self):
        """All generators as scalars, in order."""
        return tuple(self.scalar(n) for n in self.names)

    def zero(self) -> "FormalScalar":
        return FormalScalar._trusted(self, {})

    def one(self) -> "FormalScalar":
        return self.constant(1)

    def constant(self, value: Rat) -> "FormalScalar":
        value = Fraction(value)
        if value == 0:
            return FormalScalar._trusted(self, {})
        return FormalScalar._trusted(self, {(0,) * len(self.names): value})


class FormalScalar(Immutable):
    """A polynomial over Q in the generators of a :class:`GeneratorSet`.

    Stored as a map from exponent tuples to nonzero ``Fraction``
    coefficients.  All arithmetic is exact; mixing scalars over different
    generator sets raises :class:`GeneratorMismatchError`.

    The constructor checks every monomial, converts every coefficient to
    ``Fraction`` and drops zeros.  Results of arithmetic are canonical by
    construction and are built through :meth:`_trusted`, which does none
    of that.
    """

    __slots__ = ("gens", "terms")

    def __init__(self, gens: GeneratorSet, terms: Mapping[Monomial, Rat]):
        width = len(gens)
        clean = {}
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != width or any(
                not isinstance(e, int) or e < 0 for e in mono
            ):
                raise ValueError(f"bad monomial {mono!r} for {gens!r}")
            coeff = Fraction(coeff)
            if coeff != 0:
                clean[mono] = coeff
        _set_gens(self, gens)
        _set_terms(self, clean)

    @classmethod
    def _trusted(cls, gens: GeneratorSet, clean: dict) -> "FormalScalar":
        """A scalar over an already canonical term map, taken as it is.

        ``clean`` must have exponent tuples of the right width as keys and
        nonzero ``Fraction`` values, and nothing else may hold it.
        """
        self = object.__new__(cls)
        _set_gens(self, gens)
        _set_terms(self, clean)
        return self

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return next(iter(self.terms.values()))

    def monomials(self):
        """Monomials in ascending graded lexicographic order."""
        return sorted(self.terms, key=_grlex_key)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FormalScalar):
            if other.gens is not self.gens and other.gens != self.gens:
                raise GeneratorMismatchError(
                    f"cannot combine scalars over {self.gens.names} and "
                    f"{other.gens.names}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.gens.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            new = terms.get(mono, 0) + coeff
            if new == 0:
                terms.pop(mono, None)
            else:
                terms[mono] = new
        return FormalScalar._trusted(self.gens, terms)

    __radd__ = __add__

    def __neg__(self):
        return FormalScalar._trusted(self.gens, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # scale, without a constant scalar
            if other == 0:
                return self.gens.zero()
            return FormalScalar._trusted(
                self.gens, {m: c * other for m, c in self.terms.items()}
            )
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(map(add, m1, m2))
                old = terms.get(mono)
                if old is None:
                    terms[mono] = c1 * c2
                else:
                    new = old + c1 * c2
                    if new == 0:
                        del terms[mono]
                    else:
                        terms[mono] = new
        return FormalScalar._trusted(self.gens, terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero rational constant only."""
        if isinstance(other, FormalScalar):
            if not other.is_constant():
                raise ValueError(f"cannot divide by non-constant {other}")
            other = other.constant_value()
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("scalar division by zero")
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, exponent: int):
        check_int("exponent", exponent, 0)
        result = self.gens.one()
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.terms
            return self.terms == {(0,) * len(self.gens.names): other}
        if not isinstance(other, FormalScalar):
            return NotImplemented
        return (self.gens is other.gens or self.gens == other.gens) and self.terms == other.terms

    def __hash__(self) -> int:
        if self.is_constant():  # equal to its Fraction value, so hashed like it
            return hash(next(iter(self.terms.values()), 0))
        return hash((self.gens, frozenset(self.terms.items())))

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        return render_scalar(self)

    def __repr__(self) -> str:
        return f"FormalScalar({render_scalar(self)!r})"


# Slot setters: Immutable.__setattr__ refuses every assignment.
_set_gens = FormalScalar.gens.__set__
_set_terms = FormalScalar.terms.__set__


def render_scalar(s: FormalScalar) -> str:
    """Canonical expression string, re-readable by :func:`parse_scalar`.

    Terms appear in descending graded-lex order.  Powers are written as
    repeated products ("a*a*b") because the expression grammar has no
    exponent operator.
    """
    if s.is_zero():
        return "0"
    pieces = []
    for mono in sorted(s.terms, key=_grlex_key, reverse=True):
        coeff = s.terms[mono]
        factors = []
        for name, exp in zip(s.gens.names, mono):
            factors.extend([name] * exp)
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)


# -- parsing ---------------------------------------------------------------

MAX_NESTING = 100  # levels of parentheses and unary signs, well inside the stack
# optional space, then one token: ASCII digits, a word, an operator or any other character
_TOKEN = re.compile(r"(\s*)([0-9]+|\w+|[-+*/()]|\S)")
_OPS = frozenset("+-*/()")


def _tokenize(text: str):
    tokens = []
    at = 0
    for space, word in _TOKEN.findall(text):  # trailing space is all that matches nothing
        at += len(space)
        ch = word[0]
        if ch in _OPS:
            tokens.append((ch, ch, at))
        elif "0" <= ch <= "9":
            tokens.append(("num", word, at))
        elif ch.isalpha() or ch == "_":  # "²" and "٣" start words, but no name or number
            tokens.append(("name", word, at))
        else:
            raise ScalarParseError(f"unexpected character {ch!r}", at)
        at += len(word)
    tokens.append(("end", "", len(text)))
    return tokens


def int_literal(text: str, at: int) -> int:
    """int(text) for a literal of ASCII digits, refused in one short line
    past int's digit limit."""
    try:
        return int(text)
    except ValueError:
        raise ScalarParseError(f"integer literal {quoted(text)} has too many digits", at) from None


class _Parser:
    """Recursive descent for:  expr := term (('+'|'-') term)*
                               term := unary (('*'|'/') unary)*
                               unary := ('+'|'-') unary | atom
                               atom := NUMBER | NAME | '(' expr ')'
    Division is permitted only by a nonzero constant subexpression.
    """

    def __init__(self, gens: GeneratorSet, text: str):
        self.gens = gens
        self.tokens = _tokenize(text)
        self.pos = self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> FormalScalar:
        value = self.expr()
        kind, text, at = self.peek()
        if kind != "end":
            raise ScalarParseError(f"unexpected {text!r}", at)
        return value

    def expr(self) -> FormalScalar:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> FormalScalar:
        value = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, at = self.advance()
            rhs = self.unary()
            if op == "*":
                value = value * rhs
            else:
                if not rhs.is_constant():
                    raise ScalarParseError("division by a non-constant", at)
                if rhs.is_zero():
                    raise ScalarParseError("division by zero", at)
                value = value / rhs.constant_value()
        return value

    def nested(self, at, parse) -> FormalScalar:
        """parse() one level deeper, refused past MAX_NESTING levels."""
        if self.depth == MAX_NESTING:
            raise ScalarParseError(f"expression nested deeper than {MAX_NESTING} levels", at)
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def unary(self) -> FormalScalar:
        kind, _, at = self.peek()
        if kind not in ("-", "+"):
            return self.atom()
        self.advance()
        value = self.nested(at, self.unary)
        return -value if kind == "-" else value

    def atom(self) -> FormalScalar:
        kind, text, at = self.advance()
        if kind == "num":
            return self.gens.constant(int_literal(text, at))
        if kind == "name":
            try:
                return self.gens.scalar(text)
            except KeyError:
                raise ScalarParseError(f"unknown generator {text!r}", at) from None
        if kind == "(":
            value = self.nested(at, self.expr)
            kind2, text2, at2 = self.advance()
            if kind2 != ")":
                raise ScalarParseError(f"expected ')', got {text2!r}", at2)
            return value
        raise ScalarParseError(f"expected a value, got {text!r}" if text else "unexpected end of expression", at)


def parse_scalar(gens: GeneratorSet, text: str) -> FormalScalar:
    """Parse an expression over ``gens``.

    Accepts integer and rational literals ("1/3" parses as one third),
    generator names, +, -, *, parentheses, and division by nonzero
    constant subexpressions, nested at most MAX_NESTING levels deep in
    parentheses and signs.  Errors carry the offending offset.
    """
    if not isinstance(text, str):
        raise ScalarParseError("expression must be a string", 0)
    return _Parser(gens, text).parse()


# -- packed monomials and matrix flattening -----------------------------------

def _packing(r, degree):
    """(units, unpack, guard) for monomials in r variables of degree <= degree.

    A packed monomial is one int of r + 1 fields of w bits: the total
    degree, then e0 ... e_{r-1}, each below a guard bit that stays 0.  So
    x^a * x^b packs as a + b, ints compare as _grlex_key does, and, with
    guard holding every guard bit, x^a divides x^b iff ((b | guard) - a)
    keeps them all: only a field of b below a's borrows, its own guard bit.
    """
    w = degree.bit_length() + 1
    mask = (1 << w) - 1
    shifts = range((r - 1) * w, -1, -w)
    return ([1 << r * w | 1 << s for s in shifts],
            lambda m: tuple(m >> s & mask for s in shifts),
            sum(1 << (k * w + w - 1) for k in range(r + 1)))


SLICE_DEGREE = 2 ** 31  # a flattened term's total degree stays below this


def _slice_packing(r):
    """(pack, unpack) of slice monomials in r generators: _packing's fields
    of 33 bits, so two monomials of total degree below SLICE_DEGREE multiply
    as a sum of ints without a carry."""
    units, unpack, _ = _packing(r, 2 * SLICE_DEGREE - 1)
    return (lambda mono: sum(map(mul, mono, units))), unpack


def monomial_flatten(matrix: Sequence[Sequence[FormalScalar]]):
    """A matrix of FormalScalars as (d, P): d the least common denominator
    of its coefficients, P[i][j] the integer polynomial {packed monomial: int}
    (_slice_packing) of d * matrix[i][j], empty for a zero entry.  A term
    of total degree SLICE_DEGREE or more is a PreconditionError.

    The entries are not checked to share one generator set; the callers
    that combine matrices from outside check that themselves.
    """
    d = lcm(*{c.denominator for row in matrix for x in row for c in x.terms.values()})
    monos = {mono for row in matrix for x in row for mono in x.terms}
    if any(sum(mono) >= SLICE_DEGREE for mono in monos):
        raise PreconditionError("a term of total degree 2**31 or more cannot be flattened")
    pack = _slice_packing(len(next(iter(monos), ())))[0]
    key = {mono: pack(mono) for mono in monos}
    return d, [[{key[mono]: c.numerator * (d // c.denominator) for mono, c in x.terms.items()}
                for x in row] for row in matrix]
