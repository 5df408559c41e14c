import hashlib
import json
from fractions import Fraction

import pytest

from avtk.demos import run_demo
from avtk.documents import scalar_matrix_doc, torus_from_doc
from avtk.errors import PreconditionError
from avtk.homs import (
    HomGenerator,
    IdempotentData,
    complementary_subvariety,
    hom_module,
    idempotent,
    isom_search,
)
from avtk.intlinalg import identity, matmul, mat_eq, transpose
from avtk.ppsearch import admissible_family
from avtk.scalars import GeneratorSet
from avtk.torus import (
    PolarisedTorus,
    SubvarietyEmbedding,
    ambient_to_lattice,
    product,
    standard_gram,
)
from avtk.verdicts import Found, NoHoms, NotFoundUpToBound
from oracles import dual_hom

G2 = GeneratorSet(("tau_E", "tau_F"))
TAU_E = G2.scalar("tau_E")
TAU_F = G2.scalar("tau_F")


def curve(tau, d=1):
    return PolarisedTorus(G2, [[tau, d]], standard_gram([d]))


# -- hom module ranks (frozen oracles) -----------------------------------------

def test_end_of_one_curve_is_the_integers():
    E = curve(TAU_E)
    gens = hom_module(E, E)
    assert len(gens) == 1
    assert [list(r) for r in gens[0].rational_rep] in ([[1, 0], [0, 1]], [[-1, 0], [0, -1]])


def test_hom_between_independent_curves_vanishes():
    E = curve(TAU_E)
    F = curve(TAU_F)
    assert hom_module(E, F) == []
    assert hom_module(F, E) == []


def test_end_of_a_square_has_rank_four():
    E = curve(TAU_E)
    A = product([E, E])
    gens = hom_module(A, A)
    assert len(gens) == 4


def test_hom_between_products_mixes_only_matching_factors():
    E = curve(TAU_E)
    F = curve(TAU_F)
    A = product([E, F])
    gens = hom_module(A, A)
    assert len(gens) == 2  # the two factor identities, no cross maps


def test_hom_respects_isogeny_scaling():
    E = curve(TAU_E)
    E2 = curve(TAU_E, 2)
    gens = hom_module(E, E2)
    assert len(gens) == 1


def test_hom_generator_constructor_verifies_compatibility():
    E = curve(TAU_E)
    with pytest.raises(PreconditionError):
        HomGenerator(E, E, [[1, 0], [0, 2]], [[G2.one()]])


def test_hom_generator_refuses_a_non_integral_rational_representation():
    E = curve(TAU_E)
    half = Fraction(3, 2)
    with pytest.raises(PreconditionError, match="not an integer"):
        HomGenerator(E, E, [[half, 0], [0, half]], [[1]])  # int() made this the identity
    g = HomGenerator(E, E, [[Fraction(2), 0], [0, 2]], [[2]])
    assert g.rational_rep == ((2, 0), (0, 2)) and type(g.rational_rep[0][0]) is int


def test_idempotent_data_refuses_a_non_integral_norm():
    with pytest.raises(PreconditionError, match="not an integer"):
        IdempotentData(None, [[1]], 2, [[Fraction(3, 2)]])  # int() made the norm ((1,),)
    with pytest.raises(PreconditionError, match="not an integer"):
        IdempotentData(None, [[1]], Fraction(5, 2), [[2]])
    data = IdempotentData(None, [[Fraction(1, 2)]], Fraction(2), [[Fraction(2, 2)]])
    assert data.exponent == 2 and data.norm == ((1,),)
    assert type(data.exponent) is int and type(data.norm[0][0]) is int


def test_hom_generators_satisfy_the_period_equation():
    E = curve(TAU_E)
    A = product([E, E])
    for g in hom_module(A, A):
        F = [list(r) for r in g.analytic_rep]
        M = [list(r) for r in g.rational_rep]
        lhs = matmul(F, [list(r) for r in A.periods])
        rhs = matmul([list(r) for r in A.periods], M)
        assert lhs == rhs


# -- duals of maps -------------------------------------------------------------

def test_dual_hom_of_identity_is_identity():
    E = curve(TAU_E)
    ident = hom_module(E, E)[0]
    M = [list(r) for r in ident.rational_rep]
    if M[0][0] < 0:
        M = [[-x for x in row] for row in M]
        ident = HomGenerator(E, E, M, [[G2.one()]])
    d = dual_hom(ident)
    assert [list(r) for r in d.rational_rep] == [[1, 0], [0, 1]]


def test_dual_hom_transposes_the_rational_representation():
    E = curve(TAU_E)
    A = product([E, E])
    for g in hom_module(A, A):
        d = dual_hom(g)
        assert [list(r) for r in d.rational_rep] == transpose(
            [list(r) for r in g.rational_rep]
        )


# -- idempotents ----------------------------------------------------------------

def _factor_embedding(A, index, entries):
    cols = []
    for entry in entries:
        vec = [G2.zero()] * A.dim
        vec[index] = entry
        col = ambient_to_lattice(A, vec)
        assert col is not None and all(x.denominator == 1 for x in col)
        cols.append([int(x) for x in col])
    return SubvarietyEmbedding.from_spanning_vectors(A, cols)


def test_idempotent_is_idempotent():
    E = curve(TAU_E)
    F = curve(TAU_F, 3)
    A = product([E, F])
    emb = _factor_embedding(A, 0, [TAU_E, G2.one()])
    data = idempotent(emb)
    eps = [list(r) for r in data.epsilon]
    assert mat_eq(matmul(eps, eps), eps)
    assert data.exponent == 1
    # norm = exponent * epsilon is integral
    assert all(Fraction(x).denominator == 1 for row in data.norm for x in row)


def test_idempotent_pair_sums_to_identity():
    E = curve(TAU_E)
    F = curve(TAU_F, 3)
    A = product([E, F])
    emb_E = _factor_embedding(A, 0, [TAU_E, G2.one()])
    emb_F = _factor_embedding(A, 1, [TAU_F, G2.constant(3)])
    eps_E = [list(r) for r in idempotent(emb_E).epsilon]
    eps_F = [list(r) for r in idempotent(emb_F).epsilon]
    total = [[eps_E[i][j] + eps_F[i][j] for j in range(4)] for i in range(4)]
    assert mat_eq(total, identity(4))


def test_complementary_subvariety_of_factor_is_other_factor():
    E = curve(TAU_E)
    F = curve(TAU_F, 3)
    A = product([E, F])
    emb_E = _factor_embedding(A, 0, [TAU_E, G2.one()])
    emb_F = _factor_embedding(A, 1, [TAU_F, G2.constant(3)])
    assert complementary_subvariety(emb_E) == emb_F
    assert complementary_subvariety(emb_F) == emb_E


def test_complement_of_everything_is_zero():
    E = curve(TAU_E)
    full = SubvarietyEmbedding(E, identity(2))
    comp = complementary_subvariety(full)
    assert comp.rank == 0


# -- bounded isomorphism search ----------------------------------------------------

def test_isom_search_finds_the_identity_first():
    E = curve(TAU_E)
    res = isom_search(E, E, bound=3)
    assert isinstance(res, Found)
    assert abs(res.witness[0][0]) == 1 and res.witness[0][1] == 0
    assert res.tested <= 3


def test_isom_search_reports_no_homs():
    E = curve(TAU_E)
    F = curve(TAU_F)
    assert isinstance(isom_search(E, F, bound=5), NoHoms)


def test_isom_search_distinguishes_isogenous_curves():
    E = curve(TAU_E)
    E2 = curve(TAU_E, 2)
    res = isom_search(E, E2, bound=6)
    assert isinstance(res, NotFoundUpToBound)
    assert res.tested == 13  # 2 * 6 + 1 coefficient values


def test_isom_search_between_different_dimensions():
    E = curve(TAU_E)
    A = product([E, curve(TAU_F)])
    res = isom_search(E, A, bound=2)
    assert isinstance(res, NotFoundUpToBound)
    assert res.tested == 0


def test_polarised_search_is_stricter():
    E = curve(TAU_E)
    scaled = PolarisedTorus(G2, [[TAU_E, 1]], [[0, 2], [-2, 0]])
    plain = isom_search(E, scaled, bound=3)
    assert isinstance(plain, Found)  # lattices agree, forms differ
    strict = isom_search(E, scaled, bound=3, polarised=True)
    assert isinstance(strict, NotFoundUpToBound)


def test_isom_search_respects_the_bound():
    E = curve(TAU_E)
    res = isom_search(E, curve(TAU_E, 2), bound=1)
    assert isinstance(res, NotFoundUpToBound)
    assert res.bound == 1 and res.tested == 3


# -- the Hom modules and admissible families ---------------------------------------

HOMS_DIGEST = "41e0e6ba45d0c27bc2aa8708de35aa13a2ca24c1685dbdd43cbfdc2545b8b42f"


def _outcome(build, record):
    """record(build()), or the message of the PreconditionError it raised."""
    try:
        return record(build())
    except PreconditionError as exc:
        return ["refused", str(exc)]


def _hom_record(gens):
    return [[[list(r) for r in g.rational_rep], scalar_matrix_doc(g.analytic_rep)]
            for g in gens]


def _family_record(fam):
    return [[[list(r) for r in M] for M in mats] for mats in (fam.basis, fam.coordinates)]


def test_hom_module_and_admissible_family_digest():
    # pins every Hom generator (rational and analytic representation) and
    # every family basis and coordinate matrix across changes to how the
    # linear systems are built
    G = GeneratorSet(("a", "b", "c"))
    a, b, c = G.gens()
    pairs = []
    for d in (2, 3, 5, 7, 13):
        S = PolarisedTorus(G, [[a, b, 1, 0], [b, c, 0, d]], standard_gram([1, d]))
        Sd = PolarisedTorus(G, [list(r) for r in S.dual().display_periods],
                            standard_gram([d, 1]))
        for k in (1, 2, 3):
            A = product([(S, Sd)[i % 2] for i in range(k)])
            B = product([(Sd, S)[i % 2] for i in range(k)])
            pairs += [(f"d={d} k={k} swap", A, B), (f"d={d} k={k} end", A, A),
                      (f"d={d} k={k} dual", A, A.dual().torus)]
    for name in ("ex-4.1", "ex-4.2", "ex-5.3", "lemma-5.4", "thm-3.2-generic"):
        docs = run_demo(name).documents
        tori = {key: torus_from_doc(doc) for key, doc in docs.items()}
        pairs += [(f"{name} {x} {y}", tori[x], tori[y]) for x in tori for y in tori]
    records = [[tag, _outcome(lambda: hom_module(X, Y), _hom_record),
                _outcome(lambda: admissible_family(X, Y), _family_record)]
               for tag, X, Y in pairs]
    assert len(records) == 101
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == HOMS_DIGEST
