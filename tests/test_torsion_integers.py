"""The integer torsion and subtorus pipelines against their Fraction references.

quotient, push_point, symplectic_complement, idempotent and the complement
carry integer matrices over one denominator; tests/oracles.py keeps the
Fraction pipelines they replaced.  Both must give the same values, of the
same types, and refuse the same inputs with the same messages.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import avtk.homs
import avtk.torus
from avtk.demos import run_demo
from avtk.documents import torus_from_doc
from avtk.errors import PreconditionError
from avtk.homs import IdempotentData, idempotent
from avtk.intlinalg import identity, matmul, transpose
from avtk.scalars import GeneratorSet
from avtk.torus import (
    PolarisedTorus,
    QuotientResult,
    SubvarietyEmbedding,
    TorsionPoint,
    ambient_to_lattice,
    product,
    standard_gram,
)
from oracles import (
    fraction_complementary_subvariety,
    fraction_idempotent,
    fraction_push_point,
    fraction_quotient,
    fraction_symplectic_complement,
    gauss_jordan_inverse,
)

G = GeneratorSet(("t0", "t1", "t2", "t3"))
TYPES = [(1, d) for d in range(1, 7)] + [(2, 4), (1, 3, 3), (1, 1, 2, 6)]


def _curves(*degrees):
    """The product of curves of the given degrees, in its product frame."""
    return product([PolarisedTorus(G, [[G.scalar(f"t{i}"), d]], standard_gram([d]))
                    for i, d in enumerate(degrees)])


def _outcome(call, *args):
    """(the value, or the type and message of the error raised)."""
    try:
        return call(*args)
    except (ValueError, PreconditionError, AssertionError) as exc:
        return type(exc), str(exc)


@st.composite
def tori(draw):
    """(T, U): a product of curves of a type in TYPES, in the lattice basis
    U (a random unimodular matrix), so that its gram is U^T E U."""
    T = _curves(*draw(st.sampled_from(TYPES)))
    m = 2 * T.dim
    U = identity(m)
    for _ in range(draw(st.integers(0, 6))):  # column j += c * column i
        i, j = draw(st.permutations(range(m)))[:2]
        c = draw(st.integers(-2, 2))
        for row in U:
            row[j] += c * row[i]
    U = [list(r) for r in transpose(draw(st.permutations(transpose(U))))]
    periods = matmul([list(r) for r in T.periods], U)
    gram = matmul(transpose(U), matmul([list(r) for r in T.gram], U))
    return PolarisedTorus(G, periods, gram), U


@st.composite
def kernel_points(draw, T):
    """E^-1 c modulo 1 for a random integer c: a point of the polarising kernel."""
    Einv = gauss_jordan_inverse([list(r) for r in T.gram])
    c = [draw(st.integers(0, 2)) for _ in Einv]
    return TorsionPoint([sum(a * x for a, x in zip(row, c)) for row in Einv])


@st.composite
def any_points(draw, T):
    """A point with denominators up to 6, most often outside the kernel."""
    coord = st.builds(Fraction, st.integers(0, 5), st.integers(1, 6))
    return TorsionPoint([draw(coord) for _ in range(2 * T.dim)])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_quotient_and_push_point_match_the_fraction_pipeline(data):
    T, _ = data.draw(tori())
    point = data.draw(kernel_points(T) | any_points(T))
    got, want = _outcome(T.quotient, point), _outcome(fraction_quotient, T, point)
    if not isinstance(want, QuotientResult):
        assert got == want
        return
    assert got.torus == want.torus and got.basis == want.basis
    assert all(type(x) is Fraction for row in got.basis for x in row)
    assert all(type(x) is int for row in got.torus.gram for x in row)
    for x in data.draw(st.lists(kernel_points(T) | any_points(T), max_size=3)):
        pushed = got.push_point(x)
        assert pushed == fraction_push_point(want, x)
        assert all(type(c) is Fraction for c in pushed.coords)


def test_a_quotient_inverts_its_basis_once(monkeypatch):
    # push_point ran rat_inverse on the basis again for every point; quotient
    # itself inverts nothing, as the quotient command pushes no point
    calls = []
    rat_inverse = avtk.torus.rat_inverse
    monkeypatch.setattr(avtk.torus, "rat_inverse", lambda M: calls.append(M) or rat_inverse(M))
    T = _curves(1, 3, 3)
    g = max(T.kernel_elements(), key=lambda p: (p.order, p.coords))
    q = T.quotient(g)
    assert calls == []
    points = T.symplectic_complement([g]) + [g, TorsionPoint([Fraction(1, 2)] * 6)]
    for x in points:
        assert q.push_point(x) == fraction_push_point(q, x)
    assert calls == [q.basis]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_symplectic_complement_matches_the_fraction_pipeline(data):
    T, _ = data.draw(tori())
    points = data.draw(st.lists(kernel_points(T), max_size=3))
    if points and data.draw(st.integers(0, 4)) == 0:  # sometimes one outside the kernel
        points[-1] = data.draw(any_points(T))
    got = _outcome(T.symplectic_complement, points)
    assert got == _outcome(fraction_symplectic_complement, T, points)
    if isinstance(got, list):
        assert all(type(c) is Fraction for p in got for c in p.coords)


def _assert_idempotents_agree(emb):
    got, want = _outcome(idempotent, emb), _outcome(fraction_idempotent, emb)
    if not isinstance(want, IdempotentData):
        assert got == want
        return
    assert (got.epsilon, got.exponent, got.norm) == (want.epsilon, want.exponent, want.norm)
    assert all(type(x) is Fraction for row in got.epsilon for x in row)
    assert all(type(x) is int for row in got.norm for x in row)
    comp = got.complement()
    assert comp == fraction_complementary_subvariety(emb) == idempotent(emb).complement()


@st.composite
def embeddings(draw):
    """A sum of factors of a torus from tori() in its own basis, or the
    saturation of random vectors (whose restricted form may be degenerate)."""
    T, U = draw(tori())
    n, m = T.dim, 2 * T.dim
    if draw(st.booleans()):
        Uinv = [[int(x) for x in row] for row in gauss_jordan_inverse(U)]
        factors = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        cols = [k for f in sorted(factors) for k in (f, n + f)]
        return SubvarietyEmbedding(T, [[row[k] for k in cols] for row in Uinv])
    vectors = draw(st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m),
                            min_size=2, max_size=4))
    try:
        return SubvarietyEmbedding.from_spanning_vectors(T, vectors)
    except PreconditionError:  # an odd or zero rank
        return None


@settings(max_examples=150, deadline=None)
@given(embeddings())
def test_idempotent_and_complement_match_the_fraction_pipeline(emb):
    assume(emb is not None)
    _assert_idempotents_agree(emb)


def test_a_degenerate_restricted_form_is_refused_by_both():
    # (1, 0, 1, 0) and (0, 1, 0, 0) pair to zero in E x E' of type (1, 3)
    emb = SubvarietyEmbedding(_curves(1, 3), [[1, 0], [0, 1], [1, 0], [0, 0]])
    assert _outcome(idempotent, emb) == _outcome(fraction_idempotent, emb) == (
        PreconditionError, "restricted form is degenerate")


def _demo_tori(name, n):
    """The product and quotient tori of a demo run (a few milliseconds)."""
    docs = run_demo(name, n=n).documents
    return torus_from_doc(docs["product"]), torus_from_doc(docs["quotient"])


@pytest.mark.parametrize("name,n", [("ex-4.1", 2), ("ex-4.2", 3), ("thm-3.2-generic", 3)])
@pytest.mark.parametrize("factor", ["E", "B"])
def test_the_factor_embeddings_of_the_demo_products_match(name, n, factor):
    """E and B inside E x B and inside its quotient A: the curve is lattice
    columns 0 and n of the product, B the others; in A they are those
    columns' period vectors in A's lattice coordinates."""
    prod, A = _demo_tori(name, n)
    idx = [0, n] if factor == "E" else [j for j in range(1, 2 * n) if j != n]
    _assert_idempotents_agree(SubvarietyEmbedding(
        prod, [[int(i == j) for j in idx] for i in range(2 * n)]))
    cols = []
    for j in idx:
        col = ambient_to_lattice(A, [[row[j] for row in prod.periods]])[0]
        assert all(x.denominator == 1 for x in col)
        cols.append([int(x) for x in col])
    _assert_idempotents_agree(SubvarietyEmbedding.from_spanning_vectors(A, cols))


# -- each integer postcondition fires when a step before it goes wrong ------------
# On correct steps these identities always hold, so a corrupted step stands in
# for a slip: without the check, each case below would return a wrong result.

def test_quotient_refuses_a_basis_the_form_is_not_integral_on(monkeypatch):
    # the Hermite basis of Z^4 + Z (1/3, 0, 0, 0), of the same index but not
    # isotropic, in place of the point's
    hnf = avtk.torus.hnf
    monkeypatch.setattr(avtk.torus, "hnf",
                        lambda M: hnf([row[:-1] + [int(i == 0)] for i, row in enumerate(M)]))
    with pytest.raises(AssertionError, match="induced form is not integral"):
        _curves(1, 3).quotient(TorsionPoint([0, 0, 0, Fraction(1, 3)]))


def _doubled_determinant(int_inverse):
    return lambda M: (lambda adj, d: (adj, 2 * d))(*int_inverse(M))


def test_complement_refuses_a_relation_matrix_that_is_not_integral(monkeypatch):
    monkeypatch.setattr(avtk.torus, "int_inverse", _doubled_determinant(avtk.torus.int_inverse))
    with pytest.raises(AssertionError, match="relation matrix must be integral"):
        _curves(1, 3).symplectic_complement([TorsionPoint([0, 0, 0, Fraction(1, 3)])])


def test_idempotent_refuses_a_projector_that_is_not_idempotent(monkeypatch):
    monkeypatch.setattr(avtk.homs, "int_inverse", _doubled_determinant(avtk.homs.int_inverse))
    emb = SubvarietyEmbedding(_curves(3, 1), [[1, 0], [0, 0], [0, 1], [0, 0]])
    with pytest.raises(AssertionError, match="projector is not idempotent"):
        idempotent(emb)


def test_idempotent_refuses_a_norm_that_is_not_integral(monkeypatch):
    # the curve in the ex-4.1 quotient has exponent 3 and a projector with
    # denominator 3; an exponent of 1 leaves the norm non-integral
    prod, A = _demo_tori("ex-4.1", 2)
    cols = [[int(x) for x in ambient_to_lattice(A, [[row[j] for row in prod.periods]])[0]]
            for j in (0, 2)]
    emb = SubvarietyEmbedding.from_spanning_vectors(A, cols)
    assert idempotent(emb).exponent == 3
    restricted = avtk.homs.restricted_polarisation
    monkeypatch.setattr(avtk.homs, "restricted_polarisation",
                        lambda T, e: (restricted(T, e)[0], (1,)))
    with pytest.raises(AssertionError, match="norm endomorphism is not integral"):
        idempotent(emb)
