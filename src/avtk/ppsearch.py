"""Bounded search for principal polarisations, as an exact two-phase sieve.

Whether a torus A carries a principal polarisation compatible with a
model Ahat of its dual comes down to an integer symmetric positive
definite matrix H whose action sends the lattice of A onto the lattice
of Ahat.  Containment of the image lattice is linear in the entries of
H, so phase one solves it once and for all: the admissible symmetric
matrices form a lattice, usually of very small rank.  The identity
H @ P_A = P_Ahat @ C is flattened over integer polynomials: P_A and
P_Ahat are each put over one common denominator, their monomials packed
into ints (scalars.monomial_flatten), once per torus, kept on it
(PolarisedTorus.period_slice), and each monomial of each entry gives one
sparse integer row {column: int} in the entries of H and C; most rows
pin an entry to 0, and the kernel drops them first.  The Hermite basis
of the kernel, sparse maps {index: int} from intlinalg._kernel_maps,
read on the entries of H, is already that of the family; H and C are
filled from each map's nonzero entries, and each element is checked
against the identity by intlinalg.period_identity_holds, the check every
Hom generator passes, and so is each search hit.  Positivity and
surjectivity are not linear, so phase two enumerates bounded integer
combinations of that family on the pencil engine of ``parallel``: the
coordinate determinant (surjectivity) and the leading principal minors
(positivity) are computed once per family as polynomials in the
coefficients, in its Pencil; the engine evaluates the determinant a row
of candidates at a time and the minors only where it is +-1, and
returns the verdict.  The coordinate determinant is kappa * det(H)**2,
with det H the top minor and kappa worked out from the lattice
determinants the two tori keep (parallel says why), so the family hands
its basis, that minor and kappa to the Pencil as its analytic pencil,
once it has checked every pair (H, C) against the periods and the
target's periods to span a lattice, and no 2n x 2n determinant is
taken beyond the one member that checks kappa.  Before it
enumerates, the Pencil tries to prove the whole search empty: the content
of that determinant, then a norm certificate on the minors
(certify.norm_certificate).  On S x S^, with S of type (1, d), minor 3 is
q times minor 1 up to content and det H = q**2, with q = d*c0*c2 - c1**2,
so a hit needs q = 1; where -1 is not a square mod d, q = 1 has no root
modulo 4 or a prime dividing d, and every search of that family reports
the whole box at once, at any bound.
"""

from __future__ import annotations

from .errors import Immutable, PreconditionError, Value, check_int
from .intlinalg import (
    _kernel_maps,
    as_int,
    combination,
    constant_slices,
    det,
    det_polynomial,
    period_identity_holds,
)
from .parallel import Pencil, kappa
from .torus import PolarisedTorus
from .verdicts import Found, NotFoundUpToBound


class PPCandidate(Value):
    """A symmetric integer matrix proposed as a principal polarisation
    (ints or integral Fractions; any other entry is a PreconditionError)."""

    __slots__ = ("H",)

    def __init__(self, H):
        H = tuple(tuple(as_int(x) for x in row) for row in H)
        n = len(H)
        if any(len(row) != n for row in H):
            raise PreconditionError("candidate matrix must be square")
        if any(H[i][j] != H[j][i] for i in range(n) for j in range(i)):
            raise PreconditionError("candidate matrix must be symmetric")
        object.__setattr__(self, "H", H)

    def leading_minors(self):
        """Determinants of the leading principal submatrices, in order."""
        n = len(self.H)
        return tuple(
            det([[self.H[i][j] for j in range(k)] for i in range(k)])
            for k in range(1, n + 1)
        )

    def is_positive_definite(self) -> bool:
        return all(m > 0 for m in self.leading_minors())

    def _key(self):
        return self.H


class AdmissibleFamily(Immutable):
    """The lattice of integer symmetric H with H * (lattice of A) inside
    the lattice of Ahat.

    basis holds symmetric n x n matrices; coordinates holds, for each
    basis element B, the integer 2n x 2n matrix C with
    B @ periods_A = periods_Ahat @ C, so a combination sum(c_i B_i) maps
    the lattice onto (not just into) the target exactly when
    det(sum(c_i C_i)) = +-1.  Entries are read through as_int: an entry
    that is not an int or an integral Fraction is a PreconditionError.
    """

    __slots__ = ("source", "target", "basis", "coordinates", "_pencil")

    def __init__(self, source, target, basis, coordinates):
        self._fill(source, target, *(
            tuple(tuple(tuple(map(as_int, row)) for row in B) for B in mats)
            for mats in (basis, coordinates)))

    def _fill(self, source, target, basis, coordinates):
        """Set the slots; admissible_family hands over tuples of int matrices."""
        for name, value in zip(self.__slots__, (source, target, basis, coordinates, None)):
            object.__setattr__(self, name, value)

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def pencil(self) -> Pencil:
        """The coordinates as a Pencil whose positive conditions are the leading
        principal minors of sum(c_i * basis_i); built on first use and kept.

        When the target's periods span a lattice and every pair
        (basis_i, coordinates_i) satisfies its containment identity, checked
        here because the constructor takes any pairs, the basis is the
        pencil's analytic one: the top minor, det(sum(c_i * basis_i)), is
        the f it hands to Pencil._analytic, with the kappa of
        det C = kappa * f**2 that the two tori's lattice_det give
        (parallel.kappa, at scale 1).
        """
        if self._pencil is None:
            n = len(self.basis[0]) if self.basis else 0
            minors = [det_polynomial([[row[:k] for row in B[:k]] for B in self.basis])
                      for k in range(1, n + 1)]
            f, k = ((minors[-1], kappa(self.source, self.target))
                    if minors and self._checked() else (None, None))
            object.__setattr__(self, "_pencil", Pencil._analytic(
                self.coordinates, f, k, positive=minors))
        return self._pencil

    def _checked(self) -> bool:
        """Whether the target's lattice_det is not 0 and
        B @ periods_A = periods_Ahat @ C for every basis element B and its
        coordinates C."""
        A, Ahat = self.source, self.target
        if not (isinstance(A, PolarisedTorus) and isinstance(Ahat, PolarisedTorus)
                and A.gens == Ahat.gens and A.dim == Ahat.dim == len(self.basis[0])
                and len(self.coordinates[0]) == 2 * A.dim):
            return False
        pa, ph = A.period_slice, Ahat.period_slice
        return Ahat.lattice_det != 0 and all(
            period_identity_holds(constant_slices(B), C, pa, ph)
            for B, C in zip(self.basis, self.coordinates))

    def member(self, coefficients):
        """The symmetric matrix sum(c_i * basis_i), each c_i an int (errors.check_int)."""
        if len(coefficients) != self.rank:
            raise PreconditionError("one coefficient per basis element required")
        for c in coefficients:
            check_int("family coefficient", c)
        return combination(coefficients, self.basis)


def admissible_family(A: PolarisedTorus, Ahat: PolarisedTorus) -> AdmissibleFamily:
    """All integer symmetric H whose image of A's lattice lies in Ahat's.

    The n(n+1)/2 independent entries of H and the target-lattice
    coordinates of each image column are integer unknowns.  Each monomial
    of each entry of dA * dH * (H @ P_A - P_Ahat @ C), where dA and dH are
    the common denominators of the two period matrices, gives one integer
    row, a sparse map {column: int}; the kernel of those rows projects
    bijectively onto the family (the coordinates C are determined by H).
    The basis returned is that of intlinalg._kernel_maps, whose entries of
    H are already the Hermite basis of the projection; H and C are filled
    from the nonzero entries of each kernel map, and every element is
    re-verified against the containment it encodes, over the same integer
    polynomials.  A solution with H = 0 means that Ahat's periods are
    linearly dependent over Q, which is a PreconditionError.

    The family is frame-bound by contract: H is read in the given complex
    frames of A and Ahat, so a constant change of either frame can drop
    it to rank 0 even where a principal polarisation exists.
    """
    if A.gens != Ahat.gens:
        raise PreconditionError("tori live over different generator sets")
    if A.dim != Ahat.dim:
        raise PreconditionError("tori have different dimensions")
    n = A.dim
    pa, ph = A.period_slice, Ahat.period_slice
    (dA, PA), (dH, PH) = pa, ph
    sym = [(a, b) for a in range(n) for b in range(a, n)]
    s = len(sym)
    # touch[i]: (u, b) for each entry u = (i, b) or (b, i) of H on or above the diagonal
    touch = [[(u, a + b - i) for u, (a, b) in enumerate(sym) if i in (a, b)] for i in range(n)]
    system = []
    for i in range(n):
        nonzero = [(s + r, p) for r, p in enumerate(PH[i]) if p]
        for j in range(2 * n):
            # columns: the entries of H on and above the diagonal, then
            # C[r][c] column by column, C[r][j] at s + 2n * j + r
            rows = {}
            for u, b in touch[i]:
                for mono, x in PA[b][j].items():
                    rows.setdefault(mono, {})[u] = dH * x
            for base, p in nonzero:
                for mono, x in p.items():
                    rows.setdefault(mono, {})[base + 2 * n * j] = -dA * x
            system += rows.values()
    basis = []
    coords = []
    for v in _kernel_maps(system, s + 4 * n * n):
        if min(v) >= s:
            # H = 0 and C != 0 with P_Ahat @ C = 0
            raise PreconditionError("the target's periods are linearly dependent over Q")
        H = [[0] * n for _ in range(n)]
        C = [[0] * (2 * n) for _ in range(2 * n)]
        for index, x in v.items():
            if index < s:
                a, b = sym[index]
                H[a][b] = H[b][a] = x
            else:
                j, r = divmod(index - s, 2 * n)
                C[r][j] = x
        if not period_identity_holds(constant_slices(H), C, pa, ph):
            raise AssertionError("family element fails its containment identity")
        basis.append(tuple(map(tuple, H)))
        coords.append(tuple(map(tuple, C)))
    family = object.__new__(AdmissibleFamily)
    family._fill(A, Ahat, tuple(basis), tuple(coords))
    return family


def pp_search(A: PolarisedTorus, Ahat: PolarisedTorus, bound: int = 10,
              family: AdmissibleFamily | None = None):
    """Bounded search for a principal polarisation on A relative to Ahat.

    Enumerates integer combinations sum(c_i * B_i) of the admissible
    family with coefficients up to ``bound`` in absolute value; a hit
    carries the lattice of A onto the lattice of Ahat (coordinate
    determinant det(sum(c_i * C_i)) = +-1) and is positive definite
    (leading principal minors > 0).  The search runs on family.pencil:
    the coordinate determinant and the minors are computed once per
    family, as polynomials in c, and the engine checks that the hit's
    coordinates are unimodular.  The witness is rebuilt from its
    coefficients as a PPCandidate and re-verified before being returned:
    its leading minors as integers, and H @ P_A = P_Ahat @ C, for the
    hit's unimodular coordinate matrix C, by period_identity_holds.  A
    search that no refuter ends (the determinant's content, or a norm
    certificate on the minors) and that has more than
    parallel.MAX_CANDIDATES vectors raises PreconditionError, and so do a
    bound that is not an int of at least 1 (errors.check_int) and a
    ``family`` built for other tori than A and Ahat, before any work.
    """
    check_int("search bound", bound, 1)
    if family is None:
        family = admissible_family(A, Ahat)
    elif family.source != A or family.target != Ahat:
        raise PreconditionError("the admissible family was built for other tori")
    if family.rank == 0:
        return NotFoundUpToBound(bound=bound, tested=0)
    res = family.pencil.search(bound)
    if not isinstance(res, Found):
        return res
    candidate = PPCandidate(family.member(res.coefficients))
    if not candidate.is_positive_definite():
        raise AssertionError("witness is not positive definite")
    # H @ P_A = P_Ahat @ C with C unimodular: H carries the lattice onto the target's
    if not period_identity_holds(constant_slices(candidate.H), res.witness,
                                 A.period_slice, Ahat.period_slice):
        raise AssertionError("witness does not carry the lattice onto the target")
    return Found(witness=candidate, coefficients=res.coefficients, tested=res.tested)


# The obstruction-table demo builds the squares modulo every d up to its
# bound, about 150k residues in all at this cap.
MAX_MODULUS = 1000


def obstruction_report(d: int) -> dict:
    """The squares modulo d, ascending, and whether -1 is not among them.

    Returns {"d": d, "obstruction": bool, "squares": list}.  Building the
    squares takes d steps, so d above MAX_MODULUS is rejected, and so is
    a d that is not an int of at least 2.
    """
    check_int("modulus", d, 2)
    if d > MAX_MODULUS:
        raise PreconditionError(f"modulus must be at most {MAX_MODULUS}, got {d}")
    squares = {(x * x) % d for x in range(d)}
    return {"d": d, "obstruction": d - 1 not in squares, "squares": sorted(squares)}

