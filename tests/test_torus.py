from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from avtk.errors import PreconditionError
from avtk.intlinalg import det, matmul, transpose
from avtk.scalars import GeneratorSet
from avtk.torus import (
    PolarisedTorus,
    SubvarietyEmbedding,
    TorsionPoint,
    ambient_to_lattice,
    isogeny_degree,
    pairing_type,
    product,
    restricted_polarisation,
    standard_gram,
    subgroup_elements,
    subgroup_lattice,
)

G = GeneratorSet(("tau",))
TAU = G.scalar("tau")


def curve(d=1):
    """Elliptic curve with period lattice tau*Z + d*Z and form of type (d)."""
    return PolarisedTorus(G, [[TAU, d]], standard_gram([d]))


# -- torsion points -----------------------------------------------------------

def test_torsion_point_reduces_mod_one():
    p = TorsionPoint([Fraction(5, 3), Fraction(-1, 4)])
    assert p.coords == (Fraction(2, 3), Fraction(3, 4))
    assert p.order == 12


def test_torsion_point_group_operations():
    p = TorsionPoint([Fraction(1, 3), 0])
    assert (p + p + p).is_zero()
    assert (p * 3).is_zero()
    assert (p * 2).order == 3


def test_subgroup_elements_counts():
    p = TorsionPoint([Fraction(1, 2), 0])
    q = TorsionPoint([0, Fraction(1, 3)])
    assert len(subgroup_elements([p], 2)) == 2
    assert len(subgroup_elements([p, q], 2)) == 6
    assert len(subgroup_elements([], 2)) == 1


# -- construction and basic invariants ----------------------------------------

@pytest.mark.parametrize("gram", [
    [[0, Fraction(3, 2)], [Fraction(-3, 2), 0]],  # int() made this principal
    [[0, 1.9], [-1.9, 0]],  # int() made this 1
    [[0, "1"], ["-1", 0]],
])
def test_constructor_refuses_non_integral_gram_entries(gram):
    with pytest.raises(PreconditionError, match="not an integer"):
        PolarisedTorus(G, [[TAU, 1]], gram)


def test_constructor_takes_integral_fractions_in_the_gram_as_ints():
    T = PolarisedTorus(G, [[TAU, 2]], [[0, Fraction(2)], [Fraction(-2), 0]])
    assert T.gram == ((0, 2), (-2, 0)) and type(T.gram[0][1]) is int
    assert T == curve(2)


def test_constructor_validates():
    with pytest.raises(PreconditionError):
        PolarisedTorus(G, [[TAU, 1, 2]], standard_gram([1]))  # wrong width
    with pytest.raises(PreconditionError):
        PolarisedTorus(G, [[TAU, 1]], [[0, 1], [1, 0]])  # not alternating
    with pytest.raises(PreconditionError):
        PolarisedTorus(G, [[TAU, 1]], [[0, 0], [0, 0]])  # degenerate


def test_polarisation_type_of_standard_forms():
    assert pairing_type(standard_gram([1, 3])) == (1, 3)
    assert pairing_type(standard_gram([2, 2])) == (2, 2)
    T = curve(5)
    assert T.polarisation_type() == (5,)
    assert pairing_type(standard_gram([1, 2, 4])) == (1, 2, 4)


def test_polarising_kernel_orders():
    T = curve(3)
    pts = T.polarising_kernel()
    assert sorted(p.order for p in pts) == [3, 3]
    assert len(T.kernel_elements()) == 9


def test_kernel_elements_pair_integrally():
    T = curve(4)
    gram = [list(r) for r in T.gram]
    for p in T.kernel_elements():
        lift = p.lift()
        for j in range(2):
            v = sum(Fraction(gram[i][j]) * lift[i] for i in range(2))
            assert v.denominator == 1


# -- products -------------------------------------------------------------------

def test_product_type_and_dim():
    T = product([curve(2), curve(1), curve(6)])
    assert T.dim == 3
    assert T.polarisation_type() == (1, 2, 6)


def test_product_periods_are_block_structured():
    T = product([curve(2), curve(3)])
    # ambient factor vectors embed as lattice vectors
    col = ambient_to_lattice(T, [TAU, G.zero()])
    assert col is not None and all(x.denominator == 1 for x in col)
    col = ambient_to_lattice(T, [G.zero(), G.constant(3)])
    assert col is not None and all(x.denominator == 1 for x in col)
    # 1 is in the Q-span but not the Z-span of 2Z + tau Z
    col = ambient_to_lattice(T, [G.one(), G.zero()])
    assert col is not None and any(x.denominator != 1 for x in col)


# -- quotients --------------------------------------------------------------------

def test_quotient_of_type_four_curve_by_order_two():
    T = curve(4)
    q = T.quotient(TorsionPoint([0, Fraction(1, 2)]))
    assert q.torus.polarisation_type() == (2,)
    # index of the extension is the point's order
    assert abs(_frac_det(q.basis)) == Fraction(1, 2)


def _frac_det(M):
    M = [list(r) for r in M]
    n = len(M)
    from avtk.intlinalg import det

    return det(M) if n else Fraction(1)


def test_quotient_rejects_points_outside_kernel():
    T = curve(2)
    with pytest.raises(PreconditionError):
        T.quotient(TorsionPoint([0, Fraction(1, 3)]))


@pytest.mark.parametrize(
    "factors, coords, column, value",
    [
        ((2,), [0, Fraction(1, 3)], 0, "-2/3"),
        # columns 2 and 3 both pair non-integrally: the first one is named
        ((2, 3), [Fraction(1, 3), Fraction(1, 2), 0, 0], 2, "2/3"),
    ],
)
def test_quotient_names_the_first_column_a_point_fails(factors, coords, column, value):
    T = product([curve(d) for d in factors])
    with pytest.raises(PreconditionError) as info:
        T.quotient(TorsionPoint(coords))
    assert str(info.value) == (
        f"point is not in the polarising kernel: pairing with basis vector {column} "
        f"gives {value}"
    )


def test_quotient_by_full_cyclic_kernel_part():
    T = curve(4)
    q = T.quotient(TorsionPoint([0, Fraction(1, 4)]))
    assert q.torus.polarisation_type() == (1,)


@pytest.mark.parametrize("coords", [[Fraction(1, 3)], [Fraction(1, 3), 0], [0] * 5,
                                    [Fraction(1, 3)] + [0] * 5])
def test_complement_and_push_point_refuse_a_point_of_another_dimension(coords):
    # complement raised "shape mismatch (1, 2) @ (4, 4)" from matmul; push_point
    # returned TorsionPoint((1/3, 0)) for 2 coordinates and an IndexError for 6
    T = product([curve(1), curve(3)])
    q = T.quotient(TorsionPoint([0, 0, 0, Fraction(1, 3)]))
    point = TorsionPoint(coords)
    with pytest.raises(PreconditionError, match="^point dimension does not match the torus$"):
        T.symplectic_complement([point])
    with pytest.raises(PreconditionError, match="^point dimension does not match the torus$"):
        T.symplectic_complement([TorsionPoint([0, 0, 0, Fraction(1, 3)]), point])
    with pytest.raises(PreconditionError, match="^point dimension does not match the torus$"):
        q.push_point(point)


def test_push_point_respects_orders():
    T = curve(4)
    g = TorsionPoint([0, Fraction(1, 2)])
    q = T.quotient(g)
    assert q.push_point(g).is_zero()
    other = TorsionPoint([Fraction(1, 4), 0])
    assert q.push_point(other).order in (2, 4)


# -- the quotient/complement correspondence ---------------------------------------

@pytest.mark.parametrize("dtype", [(1, 2), (1, 3), (2, 2)])
def test_quotient_kernel_is_pushed_complement(dtype):
    """Brute-force finite-group oracle on surfaces of type (1,2), (1,3), (2,2).

    For a cyclic kernel subgroup <g>, the polarising kernel of the
    quotient equals the image of the symplectic complement of <g>, and
    the kernel order drops by the square of the order of g.
    """
    d1, d2 = dtype
    T = product([curve(d1), curve(d2)])
    assert T.polarisation_type() == dtype
    # deterministic pick of a maximal-order element (cyclic => isotropic)
    g = max(T.kernel_elements(), key=lambda p: (p.order, p.coords))
    q = T.quotient(g)
    comp = T.symplectic_complement([g])
    pushed = {q.push_point(x) for x in subgroup_elements(comp, 4)}
    quotient_kernel = set(q.torus.kernel_elements())
    assert pushed == quotient_kernel
    assert len(quotient_kernel) == len(T.kernel_elements()) // g.order ** 2
    expected = {(1, 2): (1, 1), (1, 3): (1, 1), (2, 2): (1, 2)}[dtype]
    assert q.torus.polarisation_type() == expected


# -- subgroups as overlattices, against the enumeration oracle ------------------------

@st.composite
def torsion_points(draw, dim, max_points):
    """Up to max_points points whose coordinates have denominators 1 to 4."""
    coord = st.builds(Fraction, st.integers(0, 3), st.integers(1, 4))
    return draw(st.lists(st.lists(coord, min_size=dim, max_size=dim).map(TorsionPoint),
                         max_size=max_points))


@st.composite
def same_or_other_generators(draw, points, dim, max_points):
    """Generators of the same group as points, or unrelated points."""
    if not points or draw(st.booleans()):
        return draw(torsion_points(dim, max_points))
    out = list(points)
    for _ in range(draw(st.integers(0, 3))):  # invertible moves: add a multiple, permute
        i, j = draw(st.integers(0, len(out) - 1)), draw(st.integers(0, len(out) - 1))
        if i != j:
            out[i] = out[i] + draw(st.integers(-3, 3)) * out[j]
    out = draw(st.permutations(out))
    if draw(st.booleans()):  # a redundant generator
        out = out + [draw(st.integers(0, 4)) * draw(st.sampled_from(out))]
    return out


@pytest.mark.parametrize("dim,max_points", [(2, 3), (4, 2)])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_subgroup_lattice_matches_the_enumeration(dim, max_points, data):
    P = data.draw(torsion_points(dim, max_points))
    Q = data.draw(same_or_other_generators(P, dim, max_points))
    HP, HQ = subgroup_lattice(P, dim), subgroup_lattice(Q, dim)
    group = subgroup_elements(P, dim)
    assert (HP == HQ) == (group == subgroup_elements(Q, dim))
    assert 1 / abs(det(HP)) == len(group)


@pytest.mark.parametrize("dtype", [(2, 2), (3, 3), (2, 4)])
def test_subgroup_lattice_rejects_a_wrong_pushed_complement(dtype):
    T = product([curve(d) for d in dtype])
    g = max(T.kernel_elements(), key=lambda p: (p.order, p.coords))
    q = T.quotient(g)
    pushed = [q.push_point(x) for x in T.symplectic_complement([g])]
    kernel = q.torus.polarising_kernel()
    members = q.torus.kernel_elements()
    target = subgroup_lattice(kernel, 4)
    assert subgroup_lattice(pushed, 4) == target
    outsider = next(p for p in (TorsionPoint([Fraction(int(i == j), e) for i in range(4)])
                                for e in (2, 3, 4) for j in range(4))
                    if p not in members)
    for i in range(len(pushed)):
        # pushed generators can be redundant (<g> maps to zero), so dropping
        # one changes the group only when the oracle says so
        fewer = pushed[:i] + pushed[i + 1:]
        assert (subgroup_lattice(fewer, 4) == target) == (subgroup_elements(fewer, 4) == members)
        assert subgroup_lattice(pushed[:i] + [outsider] + pushed[i + 1:], 4) != target
    for i in range(len(kernel)):
        # the kernel generators give a direct sum, so each one is needed
        assert subgroup_lattice(kernel[:i] + kernel[i + 1:], 4) != subgroup_lattice(pushed, 4)
    if dtype == (2, 4):  # here one pushed generator is needed
        assert any(subgroup_lattice(pushed[:i] + pushed[i + 1:], 4) != target
                   for i in range(len(pushed)))


def test_subgroup_lattice_rejects_points_of_another_dimension():
    with pytest.raises(PreconditionError):
        subgroup_lattice([TorsionPoint([Fraction(1, 2)] * 3)], 4)


def test_symplectic_complement_brute_force():
    T = product([curve(3), curve(3)])
    g = TorsionPoint([0, 0, Fraction(1, 3), Fraction(2, 3)])
    comp = T.symplectic_complement([g])
    group = subgroup_elements(comp, 4)
    gram = [list(r) for r in T.gram]

    def pairs_integrally(x, y):
        acc = Fraction(0)
        for a in range(4):
            for b in range(4):
                acc += Fraction(x.lift()[a]) * gram[a][b] * Fraction(y.lift()[b])
        return acc.denominator == 1

    brute = {x for x in T.kernel_elements() if pairs_integrally(x, g)}
    assert group == brute


def test_symplectic_complement_of_nothing_is_whole_kernel():
    T = curve(3)
    comp = T.symplectic_complement([])
    assert len(subgroup_elements(comp, 2)) == 9


# -- duals -------------------------------------------------------------------------

def test_dual_of_principal_curve_is_itself():
    T = curve(1)
    d = T.dual()
    assert d.torus == T
    assert d.scalings == (1,)


def test_dual_type_reversal():
    names = GeneratorSet(("z11", "z12", "z13", "z22", "z23", "z33"))
    z = {(i, j): names.scalar(f"z{min(i, j) + 1}{max(i, j) + 1}") for i in range(3) for j in range(3)}
    D = [1, 1, 2]
    periods = [[z[(i, j)] for j in range(3)]
               + [names.constant(D[i] if i == j else 0) for j in range(3)] for i in range(3)]
    T = PolarisedTorus(names, periods, standard_gram(D))
    d = T.dual()
    assert d.torus.polarisation_type() == (1, 2, 2)
    assert sorted(d.scalings) == [1, 2, 2]


def test_dual_is_an_involution_on_sorted_types():
    names = GeneratorSet(("a", "b", "c"))
    a, b, c = (names.scalar(x) for x in ("a", "b", "c"))
    T = PolarisedTorus(names, [[a, b, 1, 0], [b, c, 0, 3]], standard_gram([1, 3]))
    dd = T.dual().torus.dual().torus
    assert dd == T


def test_dual_requires_standard_frame():
    T = curve(2)
    skew = PolarisedTorus(G, [[TAU + 1, 2]], standard_gram([2]))
    assert skew.dual() is not None  # still standard: left block constant-free
    bad = PolarisedTorus(G, [[TAU, TAU]], standard_gram([1]))
    with pytest.raises(PreconditionError):
        bad.dual()
    assert T.dual() is not None


def test_dual_permutation_and_display_are_consistent():
    names = GeneratorSet(("z11", "z12", "z22"))
    z11, z12, z22 = (names.scalar(x) for x in ("z11", "z12", "z22"))
    T = PolarisedTorus(names, [[z11, z12, 1, 0], [z12, z22, 0, 3]], standard_gram([1, 3]))
    d = T.dual()
    assert d.scalings == (3, 1)
    assert d.permutation == (1, 0)
    # display rows carry the raw scalings before reordering
    assert d.display_periods[0][2] == names.constant(3)
    assert d.display_periods[1][3] == names.one()


# -- embeddings and restriction ------------------------------------------------------

def test_embedding_requires_saturation():
    T = product([curve(1), curve(1)])
    with pytest.raises(PreconditionError):
        SubvarietyEmbedding(T, [[2, 0], [0, 0], [0, 2], [0, 0]])
    with pytest.raises(PreconditionError):
        SubvarietyEmbedding(T, [[1], [0], [0], [0]])  # odd rank


def test_embedding_refuses_dependent_columns():
    T = product([curve(1), curve(1)])
    with pytest.raises(PreconditionError, match="dependent"):
        SubvarietyEmbedding(T, [[1, 2], [0, 0], [1, 2], [0, 0]])


def test_embedding_refuses_a_rank_two_sublattice_that_is_not_saturated():
    T = product([curve(1), curve(1)])
    with pytest.raises(PreconditionError, match="not saturated"):
        SubvarietyEmbedding(T, [[1, 0], [0, 2], [0, 0], [0, 0]])


def test_from_spanning_vectors_saturates():
    T = product([curve(1), curve(1)])
    emb = SubvarietyEmbedding.from_spanning_vectors(T, [[2, 0, 0, 0], [0, 0, 2, 0]])
    assert emb.rank == 2
    assert emb.columns[0][0] == 1 or emb.columns[0][1] == 1


def test_restricted_polarisation_of_factor():
    T = product([curve(2), curve(5)])
    emb = SubvarietyEmbedding.from_spanning_vectors(
        T, [_factor_vector(T, 0, TAU), _factor_vector(T, 0, G.constant(2))]
    )
    gram_b, rtype = restricted_polarisation(T, emb)
    assert rtype == (2,)
    assert pairing_type(gram_b) == (2,)


def _factor_vector(T, i, entry):
    vec = [G.zero()] * T.dim
    vec[i] = entry
    col = ambient_to_lattice(T, vec)
    assert col is not None
    return [int(x) for x in col]


def test_isogeny_degree():
    assert isogeny_degree([[2, 0], [0, 3]]) == 6
    assert isogeny_degree([[0, 1], [-1, 0]]) == 1


def test_isogeny_degree_is_an_int_and_refuses_non_integral_matrices():
    got = isogeny_degree([[Fraction(4, 2), 0], [0, -3]])
    assert got == 6 and type(got) is int
    for M in ([[Fraction(1, 2)]], [[1, 0], [0, Fraction(3, 2)]], [[2.0]]):
        with pytest.raises(PreconditionError):
            isogeny_degree(M)


def test_gram_transport_under_quotient_base_change():
    T = product([curve(3), curve(3)])
    g = TorsionPoint([0, 0, Fraction(1, 3), 0])
    q = T.quotient(g)
    B = [list(r) for r in q.basis]
    carried = matmul(transpose(B), matmul([list(r) for r in T.gram], B))
    assert [[int(x) for x in row] for row in carried] == [list(r) for r in q.torus.gram]
