from fractions import Fraction

import pytest

from avtk.demos import surface_pair
from avtk.errors import PreconditionError
from avtk.intlinalg import matmul, period_identity_holds, transpose
from avtk.ppsearch import (
    MAX_MODULUS,
    AdmissibleFamily,
    PPCandidate,
    admissible_family,
    obstruction_report,
    pp_search,
)
from avtk.scalars import GeneratorSet, monomial_flatten
from avtk.torus import PolarisedTorus, product, standard_gram
from avtk.verdicts import Found, NotFoundUpToBound
from oracles import span_equal

G = GeneratorSet(("a", "b", "c"))
A_, B_, C_ = (G.scalar(x) for x in ("a", "b", "c"))


def swapped_pair(d):
    """The rank-4 product of a (1, d) surface and its dual, plus the
    matching model of the product's dual."""
    S, Sd = surface_pair(G, d)
    return product([S, Sd]), product([Sd, S])


# -- candidates -------------------------------------------------------------------

def test_candidate_must_be_symmetric():
    with pytest.raises(PreconditionError):
        PPCandidate([[1, 2], [3, 1]])


def test_candidate_refuses_non_integral_entries():
    with pytest.raises(PreconditionError, match="not an integer"):
        PPCandidate([[Fraction(3, 2), 0], [0, 1]])  # int() made this the identity
    with pytest.raises(PreconditionError, match="not an integer"):
        PPCandidate([[1.0, 0], [0, 1]])
    assert PPCandidate([[Fraction(4, 2), 1], [1, 1]]).H == ((2, 1), (1, 1))


def test_candidate_and_family_refuse_bools():
    # a bool is an int subclass; neither may read True as 1
    with pytest.raises(PreconditionError, match="entry True is not an integer"):
        PPCandidate([[True]])
    with pytest.raises(PreconditionError, match="entry False is not an integer"):
        AdmissibleFamily(None, None, [[[1]]], [[[False]]])


def test_admissible_family_refuses_non_integral_entries():
    # int() made this basis the identity and these coordinates ((0,),)
    with pytest.raises(PreconditionError, match="not an integer"):
        AdmissibleFamily(None, None, [[[Fraction(3, 2), 0], [0, 1.9]]], [[[Fraction(1, 2)]]])
    with pytest.raises(PreconditionError, match="not an integer"):
        AdmissibleFamily(None, None, [[[1, 0], [0, 1]]], [[[Fraction(1, 2)]]])
    fam = AdmissibleFamily(None, None, [[[Fraction(4, 2), 1], [1, 1]]], [[[Fraction(3, 1)]]])
    assert fam.basis == (((2, 1), (1, 1)),) and fam.coordinates == (((3,),),)
    assert type(fam.basis[0][0][0]) is int and type(fam.coordinates[0][0][0]) is int


def test_leading_minors_and_definiteness():
    H = PPCandidate([[2, 1], [1, 1]])
    assert H.leading_minors() == (2, 1)
    assert H.is_positive_definite()
    assert not PPCandidate([[1, 2], [2, 1]]).is_positive_definite()
    assert not PPCandidate([[-1, 0], [0, -1]]).is_positive_definite()
    assert not PPCandidate([[0, 0], [0, 1]]).is_positive_definite()


# -- the admissible family ----------------------------------------------------------

def test_family_of_principal_curve_is_all_integers():
    gens = GeneratorSet(("tau",))
    tau = gens.scalar("tau")
    E = PolarisedTorus(gens, [[tau, 1]], standard_gram([1]))
    fam = admissible_family(E, E.dual().torus)
    assert fam.rank == 1
    assert fam.basis[0] == ((1,),)


def test_family_members_map_source_into_target():
    A, Ahat = swapped_pair(3)
    fam = admissible_family(A, Ahat)
    assert fam.rank == 3
    for Bmat, Cmat in zip(fam.basis, fam.coordinates):
        lhs = matmul([list(r) for r in Bmat], [list(r) for r in A.periods])
        rhs = matmul([list(r) for r in Ahat.periods], [list(r) for r in Cmat])
        assert lhs == rhs


def _constant(H):
    """H as constant integer polynomials over G, over the denominator 1; the
    constant monomial packs as 0."""
    return 1, [[{0: h} if h else {} for h in row] for row in H]


def test_containment_check_refuses_every_changed_entry():
    # the check admissible_family runs on each element, over integer polynomials
    A, Ahat = swapped_pair(3)
    pa, ph = monomial_flatten(A.periods), monomial_flatten(Ahat.periods)
    fam = admissible_family(A, Ahat)
    for Bmat, Cmat in zip(fam.basis, fam.coordinates):
        H, C = [list(r) for r in Bmat], [list(r) for r in Cmat]
        assert period_identity_holds(_constant(H), C, pa, ph)
        for M in (H, C):
            for row in M:
                for j in range(len(row)):
                    row[j] += 1
                    assert not period_identity_holds(_constant(H), C, pa, ph)
                    row[j] -= 1


def test_containment_check_takes_h_as_it_is():
    # an asymmetric H that holds: E x E -> E x E, (x, y) -> (y, 0)
    E = PolarisedTorus(G, [[A_, 1]], standard_gram([1]))
    EE = product([E, E])
    slices = monomial_flatten(EE.periods)
    H = [[0, 1], [0, 0]]
    C = [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
    assert period_identity_holds(_constant(H), C, slices, slices)
    assert not period_identity_holds(_constant(transpose(H)), C, slices, slices)
    # C without its zero last row, or with a row cut short, does not fit
    assert not period_identity_holds(_constant(H), C[:3], slices, slices)
    assert not period_identity_holds(_constant(H), C[:3] + [[0, 0, 0]], slices, slices)


def test_family_member_builds_combinations():
    A, Ahat = swapped_pair(3)
    fam = admissible_family(A, Ahat)
    M = fam.member([1, 0, 0])
    assert M == [list(r) for r in fam.basis[0]]
    with pytest.raises(PreconditionError):
        fam.member([1, 2])
    # admissible_family fills the slots itself, as the constructor would
    rebuilt = AdmissibleFamily(A, Ahat, fam.basis, fam.coordinates)
    assert (rebuilt.basis, rebuilt.coordinates) == (fam.basis, fam.coordinates)
    assert all(type(row) is tuple and all(type(x) is int for x in row)
               for mats in (fam.basis, fam.coordinates) for M in mats for row in M)


@pytest.mark.parametrize("bad", [0.5, True, Fraction(1), "1"], ids=["float", "bool", "Fraction", "str"])
def test_family_member_refuses_coefficients_that_are_not_ints(bad):
    # 0.5 made a float matrix and True counted as 1
    fam = admissible_family(*swapped_pair(3))
    name = type(bad).__name__
    with pytest.raises(PreconditionError, match=rf"\Afamily coefficient must be an int, not {name}\Z"):
        fam.member([bad, 0, 0])


def test_family_shape_for_the_obstructed_surface():
    """Every member has the block shape forced by the zero pattern."""
    A, Ahat = swapped_pair(3)
    fam = admissible_family(A, Ahat)
    for Bmat in fam.basis:
        assert Bmat[0][1] == Bmat[0][3] == Bmat[1][2] == Bmat[2][3] == 0
        assert Bmat[0][0] == 3 * Bmat[1][1]
        assert Bmat[3][3] == 3 * Bmat[2][2]
        assert Bmat[0][2] == Bmat[1][3]


# -- the search -----------------------------------------------------------------------

def test_pp_search_finds_identity_on_principal_surface():
    S = PolarisedTorus(G, [[A_, B_, 1, 0], [B_, C_, 0, 1]], standard_gram([1, 1]))
    res = pp_search(S, S.dual().torus, bound=1)
    assert isinstance(res, Found)
    assert [list(r) for r in res.witness.H] == [[1, 0], [0, 1]]


def test_pp_search_obstructed_at_d_three():
    A, Ahat = swapped_pair(3)
    res = pp_search(A, Ahat, bound=4)
    assert isinstance(res, NotFoundUpToBound)
    assert res.bound == 4
    assert res.tested == 9 ** 3  # the count is the whole box


@pytest.mark.parametrize(
    "d,witness",
    [
        (2, [[2, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 2]]),
        (5, [[5, 0, 2, 0], [0, 1, 0, 2], [2, 0, 1, 0], [0, 2, 0, 5]]),
    ],
)
def test_pp_search_succeeds_when_unobstructed(d, witness):
    A, Ahat = swapped_pair(d)
    res = pp_search(A, Ahat, bound=3)
    assert isinstance(res, Found)
    assert [list(r) for r in res.witness.H] == witness
    assert res.witness.is_positive_definite()
    H = [list(r) for r in res.witness.H]
    assert span_equal(matmul(H, [list(r) for r in A.periods]),
                      [list(r) for r in Ahat.periods], G)


def test_pp_search_validates_bound():
    A, Ahat = swapped_pair(2)
    with pytest.raises(PreconditionError):
        pp_search(A, Ahat, bound=0)


def test_pp_search_with_prebuilt_family():
    A, Ahat = swapped_pair(2)
    fam = admissible_family(A, Ahat)
    res = pp_search(A, Ahat, bound=2, family=fam)
    assert isinstance(res, Found)


def test_pp_search_refuses_a_family_built_for_other_tori():
    # with the d = 7 family the d = 5 search enumerated 125 candidates and
    # reported none, though its own family has a hit at candidate 42; the
    # reverse call failed its own witness check with AssertionError
    A5, B5 = swapped_pair(5)
    A7, B7 = swapped_pair(7)
    fam5, fam7 = admissible_family(A5, B5), admissible_family(A7, B7)
    for A, Ahat, fam in ((A5, B5, fam7), (A7, B7, fam5), (A5, B5, admissible_family(A5, A5))):
        with pytest.raises(PreconditionError, match="family was built for other tori"):
            pp_search(A, Ahat, bound=2, family=fam)
    res = pp_search(A5, B5, bound=2, family=fam5)
    assert isinstance(res, Found) and res.tested == 42


def _changed(mats, k, i, j):
    """mats with entry (i, j) of mats[k] raised by 1."""
    out = [[list(r) for r in M] for M in mats]
    out[k][i][j] += 1
    return out


@pytest.mark.parametrize("change", ["basis", "coordinates"])
def test_pp_search_checks_its_hit_against_the_periods(change):
    # a family whose basis element or coordinate matrix no longer satisfies
    # H @ P_A = P_Ahat @ C still has a positive definite, unimodular hit
    A, Ahat = swapped_pair(5)
    fam = admissible_family(A, Ahat)
    if change == "basis":
        bad = AdmissibleFamily(A, Ahat, _changed(fam.basis, 0, 0, 0), fam.coordinates)
    else:
        bad = AdmissibleFamily(A, Ahat, fam.basis, _changed(fam.coordinates, 0, 0, 1))
    with pytest.raises(AssertionError, match="does not carry the lattice onto the target"):
        pp_search(A, Ahat, bound=3, family=bad)
    assert isinstance(pp_search(A, Ahat, bound=3, family=fam), Found)


def test_admissible_family_refuses_a_target_dependent_over_q():
    # the periods 2 and 1 of T are dependent over Q: P_T @ C = 0 for
    # C = [[1, 0], [-2, 0]], and the family held such members with H = 0
    gens = GeneratorSet(("t",))
    T = PolarisedTorus(gens, [[2, 1]], standard_gram([1]))
    E = PolarisedTorus(gens, [[gens.scalar("t"), 1]], standard_gram([1]))
    for A, Ahat in ((T, T), (E, T)):
        with pytest.raises(PreconditionError, match="linearly dependent"):
            admissible_family(A, Ahat)


# -- the residue obstruction ------------------------------------------------------------

def test_obstruction_report_table():
    expected_true = {3, 4, 6, 7, 8, 9, 11, 12, 14, 15, 16, 18, 19, 20}
    for d in range(2, 21):
        assert obstruction_report(d)["obstruction"] is (d in expected_true), d


def test_obstruction_report_rejects_moduli_out_of_range():
    with pytest.raises(PreconditionError):
        obstruction_report(1)
    with pytest.raises(PreconditionError):
        obstruction_report(MAX_MODULUS + 1)


def test_obstruction_report_lists_the_squares():
    for d in (2, 3, 5, 12, MAX_MODULUS):
        report = obstruction_report(d)
        assert report["squares"] == sorted({(x * x) % d for x in range(d)})
        assert report["obstruction"] is (d - 1 not in report["squares"])
