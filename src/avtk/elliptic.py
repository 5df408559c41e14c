"""Exact reduction of imaginary quadratic periods under SL(2, Z).

A period tau = (p + q*sqrt(disc))/r with disc < 0 squarefree, q > 0,
r > 0 and gcd(p, q, r) = 1 determines an elliptic curve C/(Z + tau Z).
Two periods give isomorphic curves exactly when they land on the same
point of the classical fundamental domain, which this module computes
with integer arithmetic only: Re(tau) is a fraction, |tau|^2 is a
fraction, and every Moebius step is exact.

Boundary convention: Re in [-1/2, 1/2), and on the unit circle the
representative with Re <= 0 is kept.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd

from .errors import PreconditionError, ScalarParseError, Value, check_int, quoted
from .scalars import GeneratorSet, int_literal


MAX_DISCRIMINANT = 10**12  # |disc| cap: the squarefree test is trial division up to sqrt|disc|


def _squarefree(d: int) -> bool:
    d = abs(d)
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


class QuadNumber(Value):
    """(p + q*sqrt(disc))/r in the upper half plane, in lowest terms.

    The constructor checks its ints and validates disc; numbers derived
    from a validated one (Moebius images, divisions) skip the checks.
    """

    __slots__ = ("p", "q", "r", "disc")

    def __init__(self, p: int, q: int, r: int, disc: int):
        for what, x in (("p", p), ("q", q), ("r", r), ("disc", disc)):
            check_int(f"QuadNumber {what}", x)
        if -disc > MAX_DISCRIMINANT:
            raise PreconditionError(f"|discriminant| must be at most {MAX_DISCRIMINANT}")
        if disc >= 0 or not _squarefree(disc):
            raise PreconditionError("discriminant must be negative and squarefree")
        self._set(p, q, r, disc)

    @classmethod
    def _derived(cls, p: int, q: int, r: int, disc: int) -> "QuadNumber":
        """A number over the already validated discriminant disc."""
        out = object.__new__(cls)
        out._set(p, q, r, disc)
        return out

    def _set(self, p: int, q: int, r: int, disc: int):
        if r == 0:
            raise PreconditionError("zero denominator")
        if r < 0:
            p, q, r = -p, -q, -r
        if q <= 0:
            raise PreconditionError("period must lie in the upper half plane (q > 0)")
        g = gcd(gcd(abs(p), q), r)
        object.__setattr__(self, "p", p // g)
        object.__setattr__(self, "q", q // g)
        object.__setattr__(self, "r", r // g)
        object.__setattr__(self, "disc", disc)

    def re(self) -> Fraction:
        return Fraction(self.p, self.r)

    def norm2(self) -> Fraction:
        """|tau|^2, exactly."""
        return Fraction(self.p * self.p - self.q * self.q * self.disc, self.r * self.r)

    def mobius(self, a: int, b: int, c: int, d: int) -> "QuadNumber":
        """(a*tau + b) / (c*tau + d) for an integer matrix of determinant 1."""
        for what, x in (("a", a), ("b", b), ("c", c), ("d", d)):
            check_int(f"moebius {what}", x)
        if a * d - b * c != 1:
            raise PreconditionError("moebius matrix must have determinant 1")
        p1 = a * self.p + b * self.r
        q1 = a * self.q
        p2 = c * self.p + d * self.r
        q2 = c * self.q
        denom = p2 * p2 - q2 * q2 * self.disc
        return self._derived(
            p1 * p2 - q1 * q2 * self.disc,
            q1 * p2 - p1 * q2,
            denom,
            self.disc,
        )

    def divided_by(self, n: int) -> "QuadNumber":
        check_int("divisor", n, 1)
        return self._derived(self.p, self.q, self.r * n, self.disc)

    def _key(self):
        return (self.p, self.q, self.r, self.disc)

    def __str__(self) -> str:
        return f"({self.p}+{self.q}*sqrt({self.disc}))/{self.r}"

    def __repr__(self) -> str:
        return f"QuadNumber({str(self)!r})"

    _PATTERN = _re.compile(
        r"""^\s*
        (?:\(\s*(?P<p>[+-]?\d+)\s*(?P<sign>[+-])\s*)?      # optional "(p +"
        (?:(?P<q>\d+)\s*\*\s*)?                            # optional "q*"
        sqrt\(\s*(?P<d>-\d+)\s*\)
        (?:\s*\))?                                         # closing paren
        (?:\s*/\s*(?P<r>\d+))?                             # optional "/r"
        \s*$""",
        _re.VERBOSE | _re.ASCII,  # \d is an ASCII digit, as in the scalar grammar
    )

    @classmethod
    def parse(cls, text: str) -> "QuadNumber":
        """Parse "(p+q*sqrt(-D))/r"; p, q and r may be omitted when trivial."""
        m = cls._PATTERN.match(text)
        if not m:
            raise ScalarParseError(
                f"expected a period of the form (p+q*sqrt(-D))/r, got {quoted(text)}", 0
            )
        p, q, d, r = (int_literal(m[g], m.start(g)) if m[g] else default
                      for g, default in (("p", 0), ("q", 1), ("d", None), ("r", 1)))
        if m.group("sign") == "-":
            q = -q
        try:
            return cls(p, q, r, d)
        except PreconditionError as exc:
            raise ScalarParseError(str(exc), 0) from None


@dataclass(frozen=True)
class TauClass:
    """A reduced period with the trail of moves that got there.

    trail entries are ("T", k) for tau -> tau + k and ("S",) for
    tau -> -1/tau; matrix is the composite SL(2, Z) element, so
    reduced == matrix acting on the original input.
    """

    reduced: QuadNumber
    trail: tuple
    matrix: tuple


def reduce_tau(tau: QuadNumber) -> TauClass:
    """Reduce into the fundamental domain with exact comparisons."""
    trail = []
    mat = ((1, 0), (0, 1))

    def combine(a, b, c, d):
        nonlocal mat
        (a0, b0), (c0, d0) = mat
        mat = ((a * a0 + b * c0, a * b0 + b * d0),
               (c * a0 + d * c0, c * b0 + d * d0))

    start = tau
    while True:
        re = tau.re()
        k = floor(re + Fraction(1, 2))
        if k:
            tau = tau.mobius(1, -k, 0, 1)
            trail.append(("T", -k))
            combine(1, -k, 0, 1)
        if tau.norm2() < 1:
            tau = tau.mobius(0, -1, 1, 0)
            trail.append(("S",))
            combine(0, -1, 1, 0)
        else:
            break
    if tau.norm2() == 1 and tau.re() > 0:
        tau = tau.mobius(0, -1, 1, 0)
        trail.append(("S",))
        combine(0, -1, 1, 0)
    (a, b), (c, d) = mat
    if start.mobius(a, b, c, d) != tau:
        raise AssertionError("reduction trail does not reproduce the result")
    return TauClass(reduced=tau, trail=tuple(trail), matrix=mat)


def quotient_isomorphic(tau: QuadNumber, n: int) -> bool:
    """Is C/(Z + tau Z) isomorphic to C/(Z + (tau/n) Z)?

    The second curve is the quotient by the cyclic group generated by the
    image of tau/n, and isomorphism is equality in the fundamental
    domain.
    """
    check_int("torsion order", n, 1)
    return reduce_tau(tau).reduced == reduce_tau(tau.divided_by(n)).reduced


@dataclass(frozen=True)
class FormalVerdict:
    isomorphic: bool
    certificate: str


def formal_quotient_isomorphic(name: str, n: int) -> FormalVerdict:
    """For a formal (transcendental) period the quotient by an order-n
    subgroup, n > 1, is never isomorphic to the original curve.

    Returns the negative verdict with a short arithmetic certificate.
    The period must be a generator name, by GeneratorSet's rule; anything
    else, such as "1/2", is a ScalarParseError.
    """
    try:
        GeneratorSet((name,))
    except ValueError as exc:
        raise ScalarParseError(f"formal period: {exc}", 0) from None
    check_int("order", n, 2)
    t = name
    certificate = (
        f"an isomorphism would mean integers a, b, c, d with a*d - b*c = 1 and "
        f"(a*{t} + b)/(c*{t} + d) = {t}/{n}. "
        f"case c = 0: then a*d = 1, so a = d = 1 or a = d = -1, and the equation "
        f"becomes ({n}*a - d)*{t} = -{n}*b with {n}*a - d = +-({n} - 1) != 0, "
        f"forcing {t} = -{n}*b/({n}*a - d), a rational number; "
        f"case c != 0: clearing denominators gives "
        f"c*{t}^2 + (d - {n}*a)*{t} - {n}*b = 0, an algebraic relation of degree 2 "
        f"with c != 0. "
        f"either case contradicts {t} being a formal period satisfying no "
        f"polynomial relation over Q, so no such matrix exists."
    )
    return FormalVerdict(isomorphic=False, certificate=certificate)
