"""Homomorphism modules between polarised tori, exactly over Z.

A homomorphism f between tori X and Y is a pair of matrices: an integer
rational representation M (2m x 2n, on lattices) and an analytic
representation F (m x n, on ambient spaces) tied together by the exact
identity F @ periods_X = periods_Y @ M.  Since the right period block D_X
of X is constant and invertible over Q in the frames used here, F is
determined by the right half M_R of M: F = periods_Y @ M_R @ D_X^-1.  The
inverse is a constant rational matrix, so F is a matrix of polynomials,
never of rational functions.  With P_X = periods_X = [Z_X | D_X] and
P_Y = periods_Y, the identity on the left half reads

    P_Y @ M @ K_X = 0,    K_X = dI dX [-I ; D_X^-1 @ Z_X],

linear in the entries of M, with D_X^-1 = DI / dI for an integer DI and
dX the denominator of X's period slice; the columns of K_X span the
kernel of P_X, and X keeps DI, dI and K_X (PolarisedTorus.right_frame).
intlinalg.bilinear_kernel returns the canonical Hermite basis of its
integer kernel on the period slices, the whole homomorphism module, as
sparse maps {unknown: int}, M[r][c] at r * 2n + c.

Each generator's M is filled from its map, and its F is an integer
slice, PY @ (M_R @ DI) over dY dI, summed over the nonzero entries of
M_R, DI and PY only; intlinalg.period_identity_holds checks it against
that identity, F @ P_X == P_Y @ M, on the same integer slices.  The
generator keeps that slice; HomGenerator.analytic_rep renders it as
FormalScalars on its first read, so F is never flattened twice and a
caller that reads only M never builds it.

An isomorphism is an integer combination of the module's generators
whose rational representation is unimodular.  isom_search looks for one
with the pencil engine of ``parallel``, which computes the determinant
of the combination once per call, as a polynomial in its coefficients,
and returns the verdict.  When every generator's F is constant, as on
every Hom(A, Ahat) of the demos, and Y's periods span a lattice, the
engine gets the checked slices of F over one denominator as well, with
the constant kappa of det M = kappa * det(F)**2 that the two tori's
kept lattice determinants give (parallel.kappa), and takes the n x n
determinant of F in place of the 2n x 2n one of M.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import Immutable, PreconditionError, Value, check_int
from .intlinalg import (
    _divide_exactly,
    _render_slice,
    as_int,
    bilinear_kernel,
    det,
    det_polynomial,
    int_inverse,
    mat_eq,
    matmul,
    period_identity_holds,
    pullback_polynomials,
    saturate_columns,
    transpose,
)
from .scalars import FormalScalar, monomial_flatten
from .torus import (
    PolarisedTorus,
    SubvarietyEmbedding,
    restricted_polarisation,
)
from .parallel import Pencil, kappa
from .verdicts import Found, NoHoms, NotFoundUpToBound


class HomGenerator(Value):
    """One generator of Hom(X, Y): rational and analytic representations.

    rational_rep is the integer matrix M (ints or integral Fractions; any
    other entry is a PreconditionError); analytic_rep is F, a matrix of
    FormalScalar polynomials (the module docstring says why F has no
    denominators), with int and Fraction entries taken as constants.  F is
    kept as the slice (d, FS) of integer polynomials with F = FS / d, the
    integers that the defining identity F @ periods_X == periods_Y @ M is
    verified on at construction: with periods_X and periods_Y each put
    over one common denominator, the slices the tori keep, both sides are
    multiplied by the three denominators, so the check is exact for any F.
    analytic_rep renders the slice as FormalScalars on its first read and
    keeps them.  A HomGenerator in hand is proof of itself.
    """

    __slots__ = ("domain", "codomain", "rational_rep", "_slice", "_analytic")

    def __init__(self, domain, codomain, rational_rep, analytic_rep):
        M = tuple(tuple(as_int(x) for x in row) for row in rational_rep)
        gens = codomain.gens
        F = tuple(
            tuple(x if isinstance(x, FormalScalar) else gens.constant(x) for x in row)
            for row in analytic_rep
        )
        if len(M) != 2 * codomain.dim or any(len(r) != 2 * domain.dim for r in M):
            raise PreconditionError("rational representation has wrong shape")
        if len(F) != codomain.dim or any(len(r) != domain.dim for r in F):
            raise PreconditionError("analytic representation has wrong shape")
        for row in F:
            for x in row:
                if x.gens != domain.gens:
                    raise PreconditionError(
                        f"cannot combine scalars over {x.gens.names} and {domain.gens.names}")
        d, FS = monomial_flatten(F)
        self._verify(domain, codomain, M, (d, tuple(map(tuple, FS))))

    def _verify(self, domain, codomain, M, F):
        """Fill the slots once F @ periods_X == periods_Y @ M holds.

        F is a slice (d, polys) of integer polynomials over one denominator,
        as monomial_flatten gives it, checked against the period slices the
        tori keep, so that hom_module hands each F over as it computed it;
        F is kept as it is checked.
        """
        if domain.gens != codomain.gens or not period_identity_holds(
                F, M, domain.period_slice, codomain.period_slice):
            raise PreconditionError(
                "representations do not satisfy F @ periods = periods @ M"
            )
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "rational_rep", M)
        object.__setattr__(self, "_slice", F)
        object.__setattr__(self, "_analytic", None)

    @property
    def analytic_rep(self):
        """F as rows of FormalScalars, rendered from the checked slice on
        first read and kept."""
        if self._analytic is None:
            object.__setattr__(self, "_analytic", _render_slice(self.domain.gens, *self._slice))
        return self._analytic

    def _key(self):
        return (self.domain, self.codomain, self.rational_rep)

    def __repr__(self) -> str:
        return f"HomGenerator(rational_rep={self.rational_rep!r})"


def hom_module(X: PolarisedTorus, Y: PolarisedTorus):
    """Basis of Hom(X, Y) as verified HomGenerators (may be empty).

    The basis is intlinalg.bilinear_kernel's of {M : P_Y @ M @ K_X = 0},
    K_X from X.right_frame(): the canonical Hermite basis of the saturated
    integer kernel, so repeated runs agree entry for entry.  Each
    generator's F is P_Y @ (M_R @ D_X^-1), checked against the period
    slices the tori keep.  A domain whose right period block is not
    constant or is singular, and a codomain whose periods are linearly
    dependent over Q, are PreconditionErrors; a dependent domain only
    shrinks the module.
    """
    if X.gens != Y.gens:
        raise PreconditionError("tori live over different generator sets")
    n, m = X.dim, Y.dim
    DI, dI, K = X.right_frame()  # D_X^-1 = DI / dI, P_X @ K = 0
    # P_Y @ v = 0 for a rational v != 0 would put nonzero M with F = 0 in the kernel
    if not Y.periods_independent:
        raise PreconditionError("the codomain's periods are linearly dependent over Q")
    dY, PY = Y.period_slice
    index = [range(r * 2 * n, (r + 1) * 2 * n) for r in range(2 * m)]  # M[r][c]
    # F = P_Y @ M_R @ D_X^-1 = PY @ (M_R @ DI) / (dY * dI), DI integer
    scale = dY * dI
    DI_rows = [[(j, x) for j, x in enumerate(row) if x] for row in DI]
    PY_cols = [[(i, p) for i, p in enumerate(col) if p] for col in zip(*PY)]
    gens_out = []
    for vec in bilinear_kernel(PY, index, K, 4 * m * n):
        M = [[0] * (2 * n) for _ in range(2 * m)]
        MD = {}  # (r, j): the nonzero entries of M_R @ DI, and perhaps some zeros
        for u, x in vec.items():
            r, c = divmod(u, 2 * n)
            M[r][c] = x
            for j, y in DI_rows[c - n] if c >= n else ():
                MD[r, j] = MD.get((r, j), 0) + x * y
        FS = [[{} for _ in range(n)] for _ in range(m)]
        for (r, j), k in MD.items():
            for i, p in PY_cols[r] if k else ():
                acc = FS[i][j]
                for mono, y in p.items():
                    acc[mono] = acc.get(mono, 0) + k * y
        g = object.__new__(HomGenerator)
        g._verify(X, Y, tuple(map(tuple, M)), (scale, tuple(map(tuple, FS))))
        gens_out.append(g)
    return gens_out


class IdempotentData(Immutable):
    """The symmetric idempotent attached to a polarised subtorus.

    epsilon is the rational projector onto the subtorus factor, exponent
    is the largest divisor of the restricted type, and norm is the
    integral endomorphism exponent * epsilon.  The exponent and the norm
    entries are read through as_int, so a non-integral one is a
    PreconditionError.
    """

    __slots__ = ("embedding", "epsilon", "exponent", "norm")

    def __init__(self, embedding, epsilon, exponent, norm):
        object.__setattr__(self, "embedding", embedding)
        object.__setattr__(self, "epsilon", tuple(tuple(x) for x in epsilon))
        object.__setattr__(self, "exponent", as_int(exponent))
        object.__setattr__(self, "norm", tuple(tuple(map(as_int, row)) for row in norm))

    def complement(self) -> SubvarietyEmbedding:
        """The complementary subtorus: the saturated image of 1 - epsilon,
        that is of exponent * I - norm.

        The complement of the whole torus is the rank-0 embedding.  That
        the two sublattices together have finite index is verified.
        """
        emb = self.embedding
        m2 = 2 * emb.torus.dim
        e = self.exponent
        out = SubvarietyEmbedding(emb.torus, saturate_columns(
            [[e * (i == j) - x for j, x in enumerate(row)] for i, row in enumerate(self.norm)]))
        joint = [list(emb.columns[i]) + list(out.columns[i]) for i in range(m2)]
        if out.rank + emb.rank != m2 or det(joint) == 0:
            raise AssertionError("complement does not span the torus with the input")
        return out


def idempotent(emb: SubvarietyEmbedding) -> IdempotentData:
    """Symmetric idempotent of a sublattice: J (J^T E J)^(-1) J^T E.

    Requires the restricted form to be nondegenerate.  The projector is
    N / d, N = J adj(J^T E J) J^T E and d = det(J^T E J), checked to be
    idempotent as N^2 = d N.  The norm endomorphism exponent * N / d is
    integral because the exponent, the largest elementary divisor of
    J^T E J, clears the denominators of its inverse; that is asserted.
    """
    T = emb.torus
    J = [list(r) for r in emb.columns]
    E = [list(r) for r in T.gram]
    gram_b, rtype = restricted_polarisation(T, emb)
    adj, d = int_inverse(gram_b)
    N = matmul(J, matmul(adj, matmul(transpose(J), E)))
    if not mat_eq(matmul(N, N), [[d * x for x in row] for row in N]):
        raise AssertionError("projector is not idempotent")
    exponent = rtype[-1]
    norm = _divide_exactly([[exponent * x for x in row] for row in N], d)
    if norm is None:
        raise AssertionError("norm endomorphism is not integral")
    eps = [[Fraction(x, d) for x in row] for row in N]
    return IdempotentData(emb, eps, exponent, norm)


# -- bounded isomorphism search ------------------------------------------------

def _analytic_pencil(gens):
    """(F, kappa): the generators' F as integer matrices over one denominator
    s, and parallel.kappa of the domain and codomain at that scale, when
    every F is constant and the codomain's lattice_det is not 0; else None."""
    X, Y = gens[0].domain, gens[0].codomain
    scale = lcm(*(g._slice[0] for g in gens))
    out = []
    for g in gens:
        d, FS = g._slice
        # a slice's coefficient may be 0; 0 packs the constant monomial
        if any(x for row in FS for p in row for mono, x in p.items() if mono):
            return None
        out.append([[scale // d * p.get(0, 0) for p in row] for row in FS])
    return (out, kappa(X, Y, scale)) if Y.lattice_det else None


def isom_search(X: PolarisedTorus, Y: PolarisedTorus, bound: int = 10,
                polarised: bool = False):
    """Bounded search for an isomorphism X -> Y among integer combinations
    of the Hom generators.

    A combination sum(c_i * M_i) of the generators' rational
    representations is a witness when it is unimodular (and additionally
    pulls the polarisation of Y back to that of X when ``polarised`` is
    set).  The search runs on one parallel.Pencil built per call:
    det(sum(c_i * M_i)) is computed once as a polynomial in c, and the
    pull-back condition as the entries above the diagonal of
    M^T E_Y M - E_X, which must vanish; both are built over integer
    polynomials (intlinalg.det_polynomial, pullback_polynomials).  When
    every generator's F is constant and Y's periods span a lattice
    (PolarisedTorus.lattice_det != 0), the F are the slices the
    generators were checked on, put over one denominator, and the Pencil
    reads the determinant from det(sum(c_i * F_i)), n x n, times the
    kappa that X's and Y's lattice_det give (Pencil._analytic).  Returns
    the engine's Found, with the first witness in the deterministic
    coefficient order, or NotFoundUpToBound; NoHoms when the homomorphism
    module is trivial.  A polarised witness is checked to pull the form
    back.  A search that the determinant does not rule out and that has
    more than parallel.MAX_CANDIDATES vectors raises PreconditionError,
    and so does a bound that is not an int of at least 1 (errors.check_int),
    before any work.
    """
    check_int("search bound", bound, 1)
    gens = hom_module(X, Y)
    if not gens:
        return NoHoms()
    if X.dim != Y.dim:
        return NotFoundUpToBound(bound=bound, tested=0)
    mats = [g.rational_rep for g in gens]
    zero = pullback_polynomials(mats, Y.gram, X.gram) if polarised else ()
    F, k = _analytic_pencil(gens) or (None, None)
    f = None if F is None else det_polynomial(F)
    res = Pencil._analytic(mats, f, k, zero=zero).search(bound)
    if polarised and isinstance(res, Found):
        M = res.witness
        if not mat_eq(matmul(transpose(M), matmul(Y.gram, M)), X.gram):
            raise AssertionError("witness does not pull the polarisation back")
    return res
