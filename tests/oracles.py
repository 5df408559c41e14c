"""Helpers that only the tests call, kept out of the library."""

from __future__ import annotations

from avtk.homs import HomGenerator, _constant_right_block
from avtk.intlinalg import matmul, transpose
from avtk.torus import DualResult


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
