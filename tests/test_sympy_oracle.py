"""Cross-check of the integer linear algebra against sympy, an independent
implementation.  sympy is a test-only dependency: the module is skipped
when it is missing, and avtk itself never imports it."""

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form  # noqa: E402

from avtk.demos import run_demo, surface_pair  # noqa: E402
from avtk.documents import torus_from_doc  # noqa: E402
from avtk.homs import hom_module  # noqa: E402
from avtk.intlinalg import det, det_polynomial, hnf, snf  # noqa: E402
from avtk.scalars import GeneratorSet  # noqa: E402
from avtk.torus import product  # noqa: E402

entries = st.one_of(st.just(0), st.integers(min_value=-9, max_value=9))


@st.composite
def int_matrices(draw, square=False):
    m = draw(st.integers(min_value=1, max_value=5))
    n = m if square else draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    if m > 1 and draw(st.booleans()):  # make rank deficiency common
        rows[-1] = [draw(st.integers(-3, 3)) * x for x in rows[0]]
    return rows


@st.composite
def sparse_int_matrices(draw):
    """Mostly-zero matrices up to 10 x 16, some rows and columns all zero."""
    m, n = draw(st.integers(1, 10)), draw(st.integers(1, 16))
    sparse = st.integers(-9, 9) | st.just(0) | st.just(0) | st.just(0) | st.just(0)
    rows = [[draw(sparse) for _ in range(n)] for _ in range(m)]
    for i in draw(st.lists(st.integers(0, m - 1), max_size=3)):
        rows[i] = [0] * n
    for j in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        for row in rows:
            row[j] = 0
    return rows


def _reversed(M):
    return [row[::-1] for row in M[::-1]]


@settings(max_examples=150, deadline=None)
@given(int_matrices() | sparse_int_matrices())
def test_hnf_matches_sympy(A):
    # sympy's column HNF is upper triangular with pivots from the bottom row
    # and no zero columns; avtk's is its mirror image, zero columns trailing.
    # Reversing rows and columns on both sides maps one onto the other.
    H, _ = hnf(A)
    keep = [j for j in range(len(A[0])) if any(row[j] for row in H)]
    ours = [[row[j] for j in keep] for row in H]
    theirs = hermite_normal_form(sympy.Matrix(_reversed(A)))
    if keep:
        assert ours == _reversed(theirs.tolist())
    else:
        assert theirs.cols == 0


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_snf_matches_sympy(A):
    S, _, _ = snf(A)
    k = min(len(A), len(A[0]))
    theirs = smith_normal_form(sympy.Matrix(A), domain=sympy.ZZ)
    assert [S[i][i] for i in range(k)] == [abs(theirs[i, i]) for i in range(k)]


@settings(max_examples=150, deadline=None)
@given(int_matrices(square=True))
def test_det_matches_sympy(A):
    assert det(A) == sympy.Matrix(A).det()


@st.composite
def pencils(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    r = draw(st.integers(min_value=1, max_value=3))
    square = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    return draw(st.lists(square, min_size=r, max_size=r))


@settings(max_examples=60, deadline=None)
@given(pencils())
def test_det_polynomial_matches_sympy(mats):
    c = sympy.symbols(f"c0:{len(mats)}")
    member = sum((ci * sympy.Matrix(M) for ci, M in zip(c, mats)),
                 sympy.zeros(len(mats[0])))
    theirs = sympy.Poly(member.det().expand(), *c).terms()
    assert sorted(det_polynomial(mats)) == sorted(
        (int(coeff), mono) for mono, coeff in theirs if coeff != 0)


# -- Hom modules: the identity and the rank, expanded by sympy ---------------------

def _to_sympy(M, gens):
    """A matrix of FormalScalars or ints as a sympy Matrix over the generators."""
    syms = sympy.symbols(gens.names)

    def scalar(x):
        if not hasattr(x, "terms"):
            return sympy.Integer(x)
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.prod([g ** e for g, e in zip(syms, mono)])
                    for mono, c in x.terms.items()), sympy.Integer(0))

    return sympy.Matrix([[scalar(x) for x in row] for row in M]), syms


def _hom_nullity(X, Y):
    """The dimension over Q of the M with P_Y (M_R D_X^-1 Z_X - M_L) = 0."""
    n, m = X.dim, Y.dim
    PX, syms = _to_sympy(X.periods, X.gens)
    PY, _ = _to_sympy(Y.periods, Y.gens)
    unknowns = sympy.symbols(f"m0:{4 * m * n}")
    M = sympy.Matrix(2 * m, 2 * n, unknowns)
    identity = PY * (M[:, n:] * PX[:, n:].inv() * PX[:, :n] - M[:, :n])
    equations = []
    for entry in identity:
        poly = sympy.Poly(sympy.expand(entry), *syms)
        equations += poly.coeffs()
    A, _ = sympy.linear_eq_to_matrix(equations, unknowns)
    return len(A.nullspace())


def _surface_pairs():
    G = GeneratorSet(("a", "b", "c"))
    S, Sd = surface_pair(G, 3)
    pairs = [(S, Sd), (product([S, Sd]), product([Sd, S]))]
    tori = {k: torus_from_doc(v) for k, v in run_demo("ex-5.3").documents.items()}
    return pairs + [(tori["product"], tori["product-dual"])]


@pytest.mark.parametrize("k", range(3), ids=["SxS^ k=1", "SxS^ k=2", "ex-5.3"])
def test_hom_module_matches_sympy(k):
    X, Y = _surface_pairs()[k]
    gens = hom_module(X, Y)
    PX, _ = _to_sympy(X.periods, X.gens)
    PY, _ = _to_sympy(Y.periods, Y.gens)
    for g in gens:
        F, _ = _to_sympy(g.analytic_rep, X.gens)
        M = sympy.Matrix([list(r) for r in g.rational_rep])
        assert sympy.expand(F * PX - PY * M) == sympy.zeros(Y.dim, 2 * X.dim)
    assert len(gens) == _hom_nullity(X, Y)
