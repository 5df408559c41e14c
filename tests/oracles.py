"""Helpers that only the tests call, kept out of the library."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from avtk.errors import GeneratorMismatchError
from avtk.homs import HomGenerator, _constant_right_block
from avtk.intlinalg import hnf, matmul, shape, transpose
from avtk.scalars import _grlex_key
from avtk.torus import DualResult


def dense_int_kernel(M):
    """The integer kernel by a dense column Hermite form of all of M.

    H = M @ U with U unimodular: the columns of U under the zero columns
    of H span the saturated kernel, which is then put in canonical column
    Hermite form.  This is the reference the sparse int_kernel must match
    entry for entry.
    """
    m, n = shape(M)
    H, U = hnf(M)
    cols = [j for j in range(n) if all(H[i][j] == 0 for i in range(m))]
    if not cols:
        return []
    K, _ = hnf([[U[i][j] for j in cols] for i in range(n)])
    return [[K[i][j] for i in range(n)] for j in range(len(cols))]


def dense_flatten_to_int(*matrices):
    """flatten_to_int through a dense coefficient list per entry.

    The reference for the sparse flatten: rows (matrix row, monomial), one
    common denominator over every input, an all-zero input as max(rows, 1)
    zero rows.
    """
    if not matrices:
        return []
    nrows = len(matrices[0])
    widths = [len(M[0]) if M and M[0] else 0 for M in matrices]
    combined = [[x for M in matrices for x in M[i]] for i in range(nrows)]
    gens = None
    union = set()
    for row in combined:
        for entry in row:
            if gens is None:
                gens = entry.gens
            elif entry.gens != gens:
                raise GeneratorMismatchError("matrix mixes generator sets")
            union.update(entry.terms)
    monomials = tuple(sorted(union, key=_grlex_key))
    table = [[[entry.terms.get(m, Fraction(0)) for m in monomials] for entry in row]
             for row in combined]
    denom = lcm(*{c.denominator for row in combined for x in row for c in x.terms.values()})
    outs = []
    offset = 0
    for w in widths:
        if monomials:
            flat = []
            for i in range(nrows):
                cells = table[i][offset : offset + w]
                for k in range(len(monomials)):
                    flat.append([int(cell[k] * denom) for cell in cells])
        else:
            flat = [[0] * w for _ in range(max(nrows, 1))]
        outs.append(flat)
        offset += w
    return outs


def dual_hom(f: HomGenerator, dual_domain: DualResult | None = None,
             dual_codomain: DualResult | None = None) -> HomGenerator:
    """The induced homomorphism between the duals, in their recorded bases.

    For f: X -> Y this is a homomorphism dual(Y) -> dual(X).  On character
    lattices the rational representation is the transpose; composing with
    the basis bookkeeping of dual() (the quarter-turn block matrix J that
    relates a standard frame's dual basis to the dual torus's raw frame,
    and the recorded permutations) gives the matrix below, and the
    analytic representation is recomputed from the dual frames and
    verified.
    """
    X, Y = f.domain, f.codomain
    dX = dual_domain if dual_domain is not None else X.dual()
    dY = dual_codomain if dual_codomain is not None else Y.dual()
    n, m = X.dim, Y.dim

    def quarter_turn(k):
        J = [[0] * (2 * k) for _ in range(2 * k)]
        for i in range(k):
            J[k + i][i] = 1
            J[i][k + i] = -1
        return J

    def perm_matrix(perm, k):
        P = [[0] * (2 * k) for _ in range(2 * k)]
        for j, pj in enumerate(perm):
            P[pj][j] = 1
            P[k + pj][k + j] = 1
        return P

    JX = quarter_turn(n)
    JY = quarter_turn(m)
    PX = perm_matrix(dX.permutation, n)
    PY = perm_matrix(dY.permutation, m)
    Mt = transpose([list(r) for r in f.rational_rep])
    inner = matmul([[-x for x in row] for row in JX], matmul(Mt, JY))
    Mhat = matmul(transpose(PX), matmul(inner, PY))
    Dinv = _constant_right_block(dY.torus)
    nh = dY.torus.dim
    MR = [[Mhat[r][nh + j] for j in range(nh)] for r in range(2 * n)]
    F = matmul(matmul([list(r) for r in dX.torus.periods], MR), Dinv)
    return HomGenerator(dY.torus, dX.torus, Mhat, F)
