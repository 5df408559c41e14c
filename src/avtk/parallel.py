"""The bounded coefficient search over an integer matrix pencil.

Both bounded searches ask for the first integer vector c, |c_i| <= bound,
whose pencil member sum(c_i * C_i) is unimodular and meets side
conditions that are polynomial in c: an isomorphism search may also ask
that a form pulls back (polynomials that must vanish), the principal
polarisation search that the leading principal minors of a symmetric
matrix are positive.  A Pencil computes det(sum(c_i * C_i)) once, not
once per search, as a polynomial with integer coefficients taken by
Bareiss elimination over integer polynomials (intlinalg.det_polynomial).

Before any enumeration it rules out whole searches: when the coefficients
of the determinant have a common factor above 1 no member is unimodular,
and a table of the parity vectors at which the determinant is odd skips
most candidates without evaluating anything else.  A search that is not
ruled out and has more than MAX_CANDIDATES coefficient vectors is refused.

Coefficient vectors are enumerated with each coordinate running through
0, 1, -1, 2, -2, ..., bound, -bound, lexicographically, by one loop in
the calling process (run_search).  Only the last coordinate changes
along a row of 2*bound + 1 consecutive vectors, so the determinant is
split by the power of the last coordinate; per prefix c[:-1] its
coefficients are evaluated once, and each last value is tested by
Horner's rule.  The parity table, re-keyed by the prefix's parity, skips
whole rows or every other value of one.  The side conditions are
evaluated in full, only where the determinant is +-1.

Pencil.search returns the verdict itself: Found with the hit's member,
rebuilt from its coefficients and checked to be unimodular, or
NotFoundUpToBound; ``tested`` counts the vectors enumerated up to the
hit, or the whole box (2*bound + 1)**rank.  A bound that is not an int
of at least 1 is refused (errors.check_int) before any work.

The module and run_search keep their names because the benchmark looks
them up.
"""

from __future__ import annotations

from itertools import product as iter_product
from math import gcd

from .errors import Immutable, PreconditionError, check_int
from .intlinalg import combination, det, det_polynomial
from .verdicts import Found, NotFoundUpToBound

# (2*bound + 1)**rank above this is refused.  The largest search a demo runs
# at its defaults, pp-search at bound 25 on a rank-3 family, has 51**3 = 132,651.
# It also bounds the parity table: 2**rank < 3**rank <= this gives rank <= 12.
MAX_CANDIDATES = 1_000_000


def coefficient_values(bound: int):
    """The per-coordinate value order 0, 1, -1, ..., bound, -bound."""
    out = [0]
    for v in range(1, bound + 1):
        out.append(v)
        out.append(-v)
    return out


def _sparse(terms):
    """(coefficient, ((variable, exponent), ...)) with zero exponents dropped."""
    return tuple(
        (coeff, tuple((g, e) for g, e in enumerate(mono) if e)) for coeff, mono in terms
    )


def _evaluate(sparse_terms, c) -> int:
    total = 0
    for coeff, factors in sparse_terms:
        for g, e in factors:
            coeff *= c[g] ** e
        total += coeff
    return total


def _split_last(sparse_terms, last):
    """The coefficients of sparse_terms as a polynomial in c[last], highest
    power first, each a sparse polynomial in the coordinates before it."""
    by_power = {}
    for coeff, factors in sparse_terms:
        rest = dict(factors)
        by_power.setdefault(rest.pop(last, 0), []).append((coeff, tuple(rest.items())))
    top = max(by_power, default=0)
    return tuple(tuple(by_power.get(k, ())) for k in range(top, -1, -1))


def run_search(rank, bound, det_p, positive, zero, parities):
    """(index, c) of the first coefficient vector that passes, or None.

    c passes when its parity vector is in ``parities``, det_p evaluates
    to +-1, every ``positive`` polynomial is > 0 and every ``zero`` one
    vanishes; index is c's position in the enumeration order.
    The vectors are taken a row at a time: per prefix c[:-1], the
    coefficients of det_p in the last coordinate are evaluated once, and
    each last value the parity table admits is tested by Horner's rule.
    The side conditions are evaluated in full, only where det_p is +-1.
    """
    values = coefficient_values(bound)
    width = len(values)
    horner = _split_last(det_p, rank - 1)
    # prefix parity -> the (position, value) pairs of admitted last values
    bits = {}
    for e in parities:
        bits.setdefault(e[:-1], set()).add(e[-1])
    rows = {key: tuple(pv for pv in enumerate(values) if (pv[1] & 1) in b)
            for key, b in bits.items()}
    for prefix_index, prefix in enumerate(iter_product(values, repeat=rank - 1)):
        row = rows.get(tuple(v & 1 for v in prefix))
        if row is None:
            continue
        coeffs = [_evaluate(p, prefix) for p in horner]
        for position, x in row:
            d = 0
            for a in coeffs:
                d = d * x + a
            if d != 1 and d != -1:
                continue
            c = prefix + (x,)
            if any(_evaluate(p, c) <= 0 for p in positive):
                continue
            if any(_evaluate(p, c) for p in zero):
                continue
            return prefix_index * width + position, c
    return None


class Pencil(Immutable):
    """The pencil sum(c_i * mats[i]) with side conditions, searched at any bound.

    positive and zero are polynomials in c as (coefficient, exponents)
    pairs, the form det_polynomial returns: a hit must make every
    ``positive`` one > 0 and every ``zero`` one vanish.  The inputs are
    copied into tuples.  The determinant polynomial, its content verdict
    and its parity table depend on no bound: the first search computes
    them, and later searches reuse them.  homs.isom_search builds one
    Pencil per call and AdmissibleFamily.pencil one per family.

    >>> p = Pencil([[[2]], [[5]]])  # the 1 x 1 members (2*c_0 + 5*c_1)
    >>> p.search(1)
    NotFoundUpToBound(bound=1, tested=9)
    >>> p.search(2)  # the determinant is not computed again
    Found(witness=((-1,),), coefficients=(2, -1), tested=18)
    """

    __slots__ = ("mats", "positive", "zero", "_plan")

    def __init__(self, mats, positive=(), zero=()):
        object.__setattr__(self, "mats", tuple(tuple(map(tuple, M)) for M in mats))
        # _sparse copies each polynomial into tuples
        object.__setattr__(self, "positive", tuple(map(_sparse, positive)))
        object.__setattr__(self, "zero", tuple(map(_sparse, zero)))
        object.__setattr__(self, "_plan", None)

    def search(self, bound: int):
        """Found for the first c whose member is unimodular and meets the side
        conditions (witness: the member's rows; tested: its position in the
        enumeration order plus one), else NotFoundUpToBound over the whole
        box.  A box of more than MAX_CANDIDATES vectors that the content does
        not rule out, and a bound that is not an int >= 1, raise
        PreconditionError."""
        check_int("search bound", bound, 1)
        rank = len(self.mats)
        box = (2 * bound + 1) ** rank
        if self._plan is None:  # (det_p, parities), or () when the content rules all out
            terms = det_polynomial(self.mats)
            plan = ()
            if terms and gcd(*(coeff for coeff, _ in terms)) == 1:
                det_p = _sparse(terms)
                # 3**rank > MAX_CANDIDATES refuses every search: no 2**rank table then
                parities = None if 3 ** rank > MAX_CANDIDATES else frozenset(
                    e for e in iter_product((0, 1), repeat=rank) if _evaluate(det_p, e) & 1)
                plan = (det_p, parities)
            object.__setattr__(self, "_plan", plan)
        plan = self._plan
        if not plan:
            return NotFoundUpToBound(bound=bound, tested=box)
        if box > MAX_CANDIDATES:
            raise PreconditionError(
                f"a search of (2*{bound} + 1)^{rank} coefficient vectors exceeds the "
                f"cap of {MAX_CANDIDATES}; lower the bound"
            )
        det_p, parities = plan
        hit = run_search(rank, bound, det_p, self.positive, self.zero, parities)
        if hit is None:
            return NotFoundUpToBound(bound=bound, tested=box)
        index, c = hit
        M = combination(c, self.mats)
        if det(M) not in (1, -1):
            raise AssertionError("witness is not unimodular")
        return Found(witness=tuple(map(tuple, M)), coefficients=c, tested=index + 1)
