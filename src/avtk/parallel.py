"""The bounded coefficient search over an integer matrix pencil.

Both bounded searches ask for the first integer vector c, |c_i| <= bound,
whose pencil member sum(c_i * C_i) is unimodular and meets side
conditions that are polynomial in c: an isomorphism search may also ask
that a form pulls back (polynomials that must vanish), the principal
polarisation search that the leading principal minors of a symmetric
matrix are positive.  pencil_search computes det(sum(c_i * C_i)) once,
as a polynomial, and evaluates it and the side conditions per candidate.

Before any enumeration it rules out whole searches: when the coefficients
of the determinant have a common factor above 1 no member is unimodular,
and a table of the parity vectors at which the determinant is odd skips
most candidates without evaluating anything else.  A search that is not
ruled out and has more than MAX_CANDIDATES coefficient vectors is refused.

Coefficient vectors are enumerated with each coordinate running through
0, 1, -1, 2, -2, ..., bound, -bound, lexicographically, by one loop in
the calling process.

The module and run_search keep their names because the benchmark looks
them up.
"""

from __future__ import annotations

from itertools import product as iter_product
from math import gcd

from .errors import PreconditionError
from .intlinalg import det_polynomial

PARITY_RANK_CAP = 10  # the parity table has 2**rank entries
# (2*bound + 1)**rank above this is refused.  The largest search a demo runs
# at its defaults, pp-search at bound 25 on a rank-3 family, has 51**3 = 132,651.
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


def run_search(rank, bound, det_p, positive, zero, parities):
    """(index, c) of the first coefficient vector that passes, or None.

    c passes when its parity vector is in ``parities`` (None admits all),
    det_p evaluates to +-1, every ``positive`` polynomial is > 0 and every
    ``zero`` one vanishes; index is c's position in the enumeration order.
    """
    for index, c in enumerate(iter_product(coefficient_values(bound), repeat=rank)):
        if parities is not None and tuple(v & 1 for v in c) not in parities:
            continue
        d = _evaluate(det_p, c)
        if d != 1 and d != -1:
            continue
        if any(_evaluate(p, c) <= 0 for p in positive):
            continue
        if any(_evaluate(p, c) for p in zero):
            continue
        return index, c
    return None


def pencil_search(mats, bound: int, positive=(), zero=()):
    """(index, c) of the first c with sum(c_i * mats[i]) unimodular.

    positive and zero are polynomials in c as (coefficient, exponents)
    pairs, the form det_polynomial returns: a hit must make every
    ``positive`` one > 0 and every ``zero`` one vanish.  Returns None when
    no vector with coordinates up to ``bound`` qualifies, without
    enumerating when the determinant's coefficients share a factor.
    Otherwise raises PreconditionError when there are more than
    MAX_CANDIDATES vectors to enumerate.
    """
    det_terms = det_polynomial(mats)
    if not det_terms or gcd(*(coeff for coeff, _ in det_terms)) > 1:
        return None
    rank = len(mats)
    if (2 * bound + 1) ** rank > MAX_CANDIDATES:
        raise PreconditionError(
            f"a search of (2*{bound} + 1)^{rank} coefficient vectors exceeds the "
            f"cap of {MAX_CANDIDATES}; lower the bound"
        )
    det_p = _sparse(det_terms)
    parities = None
    if rank <= PARITY_RANK_CAP:
        parities = frozenset(
            e for e in iter_product((0, 1), repeat=rank) if _evaluate(det_p, e) & 1
        )
    return run_search(rank, bound, det_p, tuple(_sparse(p) for p in positive),
                      tuple(_sparse(p) for p in zero), parities)
