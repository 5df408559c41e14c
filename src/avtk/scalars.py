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
the row layout produced by :func:`monomial_flatten`.

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

from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import GeneratorMismatchError, ScalarParseError

Monomial = tuple  # tuple[int, ...], one exponent per generator
Rat = Union[int, Fraction]


def _grlex_key(mono):
    return (sum(mono), mono)


class GeneratorSet:
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

    def __setattr__(self, *args):
        raise AttributeError("GeneratorSet is immutable")

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, GeneratorSet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"GeneratorSet({self.names!r})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def scalar(self, name: str) -> "FormalScalar":
        """The generator ``name`` as a scalar."""
        exps = [0] * len(self.names)
        exps[self.index(name)] = 1
        return FormalScalar(self, {tuple(exps): Fraction(1)})

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


class FormalScalar:
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

    def __setattr__(self, *args):
        raise AttributeError("FormalScalar is immutable")

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

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def leading_term(self):
        """(monomial, coefficient) of the graded-lex largest term."""
        if not self.terms:
            raise ValueError("zero scalar has no leading term")
        mono = max(self.terms, key=_grlex_key)
        return mono, self.terms[mono]

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
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
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


# Slot setters: FormalScalar.__setattr__ refuses every assignment.
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
            body = _render_fraction(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_render_fraction(mag)] + factors)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)


def _render_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# -- parsing ---------------------------------------------------------------

_OPS = frozenset("+-*/()")


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise ScalarParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


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
        self.pos = 0

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

    def unary(self) -> FormalScalar:
        kind, _, _ = self.peek()
        if kind == "-":
            self.advance()
            return -self.unary()
        if kind == "+":
            self.advance()
            return self.unary()
        return self.atom()

    def atom(self) -> FormalScalar:
        kind, text, at = self.advance()
        if kind == "num":
            return self.gens.constant(int(text))
        if kind == "name":
            try:
                return self.gens.scalar(text)
            except KeyError:
                raise ScalarParseError(f"unknown generator {text!r}", at) from None
        if kind == "(":
            value = self.expr()
            kind2, text2, at2 = self.advance()
            if kind2 != ")":
                raise ScalarParseError(f"expected ')', got {text2!r}", at2)
            return value
        raise ScalarParseError(f"expected a value, got {text!r}" if text else "unexpected end of expression", at)


def parse_scalar(gens: GeneratorSet, text: str) -> FormalScalar:
    """Parse an expression over ``gens``.

    Accepts integer and rational literals ("1/3" parses as one third),
    generator names, +, -, *, parentheses, and division by nonzero
    constant subexpressions.  Errors carry the offending offset.
    """
    if not isinstance(text, str):
        raise ScalarParseError("expression must be a string", 0)
    return _Parser(gens, text).parse()


# -- matrix flattening ------------------------------------------------------

def monomial_flatten(matrix: Sequence[Sequence[FormalScalar]]):
    """Flatten a scalar matrix into (monomials, coefficient table).

    Returns the sorted tuple of all monomials occurring anywhere in the
    matrix (ascending graded-lex) plus, for each position, the tuple of
    coefficients aligned with that monomial list, so that two matrices
    flattened together can be compared coefficient by coefficient.
    """
    gens = None
    union = set()
    for row in matrix:
        for entry in row:
            if gens is None:
                gens = entry.gens
            elif entry.gens != gens:
                raise GeneratorMismatchError("matrix mixes generator sets")
            union.update(entry.terms)
    monomials = tuple(sorted(union, key=_grlex_key))
    zero = Fraction(0)  # one shared object for every absent coefficient
    table = tuple(
        tuple(tuple(entry.terms.get(m, zero) for m in monomials) for entry in row)
        for row in matrix
    )
    return monomials, table


# -- exact division ---------------------------------------------------------

def _descending_key(mono):
    """Heap entry whose smallest is the graded-lex largest monomial."""
    return (-sum(mono), tuple(-e for e in mono), mono)


def exact_div(f: FormalScalar, g: FormalScalar) -> FormalScalar:
    """Exact polynomial quotient f/g; raises ValueError if g does not divide f."""
    if g.gens is not f.gens and g.gens != f.gens:
        raise GeneratorMismatchError(
            f"cannot divide a scalar over {f.gens.names} by one over {g.gens.names}"
        )
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    g_mono, g_coeff = g.leading_term()
    g_terms = list(g.terms.items())
    rem = dict(f.terms)
    # every monomial of rem has an entry; entries of cancelled ones are skipped
    heap = [_descending_key(m) for m in rem]
    heapify(heap)
    quotient = {}
    while rem:
        r_mono = heappop(heap)[2]
        if r_mono not in rem:
            continue
        diff = tuple(a - b for a, b in zip(r_mono, g_mono))
        if any(d < 0 for d in diff):
            raise ValueError(f"{g} does not divide {f}")
        q = rem[r_mono] / g_coeff
        quotient[diff] = q
        for mono, coeff in g_terms:  # rem -= q * x^diff * g, in place
            m = tuple(map(add, diff, mono))
            old = rem.get(m)
            if old is None:
                rem[m] = -q * coeff
                heappush(heap, _descending_key(m))
            else:
                new = old - q * coeff
                if new:
                    rem[m] = new
                else:
                    del rem[m]
    return FormalScalar._trusted(f.gens, quotient)
