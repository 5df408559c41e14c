"""The bounded coefficient search over an integer matrix pencil.

Both bounded searches ask for the first integer vector c, |c_i| <= bound,
whose pencil member sum(c_i * C_i) is unimodular and meets side
conditions that are polynomial in c: an isomorphism search may also ask
that a form pulls back (polynomials that must vanish), the principal
polarisation search that the leading principal minors of a symmetric
matrix are positive.  A Pencil computes det(sum(c_i * C_i)) once, not
once per search, as a polynomial with integer coefficients taken by
Bareiss elimination over integer polynomials (intlinalg.det_polynomial).

A pencil of maps between tori may also come with the determinant f of
its analytic representations (Pencil._analytic), integer n x n matrices
F_i with F_i @ periods_X = s * periods_Y @ C_i for one integer scale s.
Read at two points z and w of the formal generators, that identity
stacks to diag(F, F) @ Pi_X = s * Pi_Y @ C with Pi_X = [P_X(z); P_X(w)],
the formal form of rho_r (x) C = rho_a + conj(rho_a) (Birkenhake-Lange
1.2).  Taking determinants, det(sum(c_i * C_i)) = kappa * f**2 as
polynomials, with f = det(sum(c_i * F_i)) and the rational constant
kappa = det(Pi_X) / (det(Pi_Y) * s**(2n)) wherever det(Pi_Y) != 0.  Each
torus keeps det Pi, times its slice denominator to the 2n, as one
integer (PolarisedTorus.lattice_det, read at the same z and w for every
torus over one generator set), so kappa is worked out from the two tori
(kappa below), not estimated.  The Pencil then uses the n x n determinant
f in place of the 2n x 2n one.  By Gauss's lemma the determinant's
content is |kappa| * content(f)**2, so the content verdict below needs
no 2n x 2n work; when it is 1, the determinant is +-g**2 with
g = f / content(f), and the search runs on g: g(c) = +-1 exactly where
the determinant is +-1, and g(c) is odd exactly where it is, so hits,
counts and witnesses are those of the determinant, at half its degree.
One seeded member checks det = kappa * f**2 by an exact integer
determinant; a mismatch is an AssertionError, never a fallback.

Before any enumeration it makes three checks, once per pencil.  Two are
refuters, which end every search at any bound: when the coefficients of
the determinant have a common factor above 1 no member is unimodular; and,
for a pencil with ``positive`` conditions, certify.norm_certificate may
prove that no c makes the determinant +-1 with every condition positive,
a proof that certify.check_norm_certificate re-derives before it is used.
The third, a table of the parity vectors at which the determinant is odd,
skips most candidates without evaluating anything else.  A search that no
refuter ends and that has more than MAX_CANDIDATES coefficient vectors is
refused.

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

from fractions import Fraction
from itertools import islice, product as iter_product
from math import gcd

from .certify import check_norm_certificate, norm_certificate
from .errors import Immutable, PreconditionError, check_int
from .intlinalg import combination, det, det_polynomial, scattered
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
    copied into tuples.  The determinant polynomial, its content verdict,
    its norm certificate and its parity table depend on no bound: the
    first search computes them, and later searches reuse them.
    homs.isom_search builds one Pencil per call and AdmissibleFamily.pencil
    one per family.

    Pencil._analytic builds one that reads its determinant from that of
    its analytic pencil; this constructor takes no analytic pencil, since
    the verdicts drawn from one hold only once the caller has checked it.

    >>> p = Pencil([[[2]], [[5]]])  # the 1 x 1 members (2*c_0 + 5*c_1)
    >>> p.search(1)
    NotFoundUpToBound(bound=1, tested=9)
    >>> p.search(2)  # the determinant is not computed again
    Found(witness=((-1,),), coefficients=(2, -1), tested=18)
    """

    __slots__ = ("mats", "positive", "zero", "_analytic_det", "_plan")

    def __init__(self, mats, positive=(), zero=()):
        object.__setattr__(self, "mats", tuple(tuple(map(tuple, M)) for M in mats))
        # _sparse copies each polynomial into tuples
        object.__setattr__(self, "positive", tuple(map(_sparse, positive)))
        object.__setattr__(self, "zero", tuple(map(_sparse, zero)))
        object.__setattr__(self, "_analytic_det", None)
        object.__setattr__(self, "_plan", None)

    @classmethod
    def _analytic(cls, mats, f, kappa, positive=(), zero=()):
        """The Pencil of mats whose first search takes f = det(sum(c_i * F_i)),
        in det_polynomial's form, with det(sum(c_i * mats[i])) = kappa * f**2,
        in place of the 2n x 2n determinant, and searches the primitive part
        of f (the module docstring says why); f = None gives the plain Pencil.
        Only for F that the caller has checked against the periods, into a
        torus whose lattice_det is not 0, with kappa from ``kappa``:
        homs.isom_search and AdmissibleFamily.pencil.
        """
        pencil = cls(mats, positive, zero)
        if f is not None:
            object.__setattr__(pencil, "_analytic_det",
                               (tuple((coeff, tuple(mono)) for coeff, mono in f), kappa))
        return pencil

    def search(self, bound: int):
        """Found for the first c whose member is unimodular and meets the side
        conditions (witness: the member's rows; tested: its position in the
        enumeration order plus one), else NotFoundUpToBound over the whole
        box.  A box of more than MAX_CANDIDATES vectors that no refuter ends
        (the content, or a norm certificate), and a bound that is not an
        int >= 1, raise PreconditionError."""
        check_int("search bound", bound, 1)
        rank = len(self.mats)
        box = (2 * bound + 1) ** rank
        if self._plan is None:
            object.__setattr__(self, "_plan", self._build_plan())
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

    def _build_plan(self):
        """(det_p, parities), or () when the content or a checked norm
        certificate (positive conditions only) rules every member out."""
        det_p = self._search_polynomial()
        if not det_p:
            return ()
        if self.positive:
            cert = norm_certificate(det_p, self.positive)
            if cert is not None:
                if not check_norm_certificate(cert, det_p, self.positive):
                    raise AssertionError("norm certificate fails its check")
                return ()
        rank = len(self.mats)
        # 3**rank > MAX_CANDIDATES refuses every search: no 2**rank table then
        parities = None if 3 ** rank > MAX_CANDIDATES else frozenset(
            e for e in iter_product((0, 1), repeat=rank) if _evaluate(det_p, e) & 1)
        return det_p, parities

    def _search_polynomial(self):
        """det_p, sparse, +-1 and odd exactly where the determinant is: the
        determinant, or g = f / content(f) for an analytic pencil (f, kappa),
        first checked at one seeded member c != 0 to give det = kappa * f(c)**2;
        () when f, kappa or the content rules every member out."""
        if self._analytic_det is None:
            terms = det_polynomial(self.mats)
            return _sparse(terms) if terms and gcd(*(coeff for coeff, _ in terms)) == 1 else ()
        f, kappa = self._analytic_det
        rank = len(self.mats)
        values, c = scattered(rank, 2), (0,) * rank
        while not any(c):
            c = tuple(islice(values, rank))
        fc = _evaluate(_sparse(f), c)
        if det(combination(c, self.mats)) != kappa * fc * fc:
            raise AssertionError("the determinant is not kappa * f**2 at a seeded member")
        if not (f and kappa):
            return ()
        content_f = gcd(*(coeff for coeff, _ in f))
        content = abs(kappa) * content_f * content_f
        if content.denominator != 1:
            raise AssertionError("kappa * f**2 does not have integer coefficients")
        if content != 1:
            return ()
        return _sparse([(coeff // content_f, mono) for coeff, mono in f])


def kappa(X, Y, scale=1):
    """det(Pi_X) / (det(Pi_Y) * scale**(2n)) (the module docstring) for tori X
    and Y of one dimension n, Y.lattice_det != 0: det(Pi_X) is
    X.lattice_det / dX**(2n), with dX the denominator of X's slice."""
    (dX, _), (dY, _) = X.period_slice, Y.period_slice
    e = 2 * X.dim
    return Fraction(X.lattice_det * dY ** e, Y.lattice_det * (dX * scale) ** e)
