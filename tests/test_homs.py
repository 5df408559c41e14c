import functools
import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from avtk.demos import quotient_display, run_demo, surface_pair
from avtk.documents import scalar_matrix_doc, torus_from_doc
from avtk.errors import PreconditionError
from avtk.homs import (
    HomGenerator,
    IdempotentData,
    hom_module,
    idempotent,
    isom_search,
)
from avtk.intlinalg import (
    constant_slices,
    det,
    flatten_to_int,
    identity,
    lattice_det,
    matmul,
    mat_eq,
    period_identity_holds,
    rat_inverse,
    transpose,
)
from avtk.ppsearch import admissible_family, pp_search
from avtk.scalars import FormalScalar, GeneratorSet, _slice_packing, monomial_flatten
from avtk.torus import (
    PolarisedTorus,
    SubvarietyEmbedding,
    ambient_to_lattice,
    constant_right_block,
    product,
    standard_gram,
)
from avtk.verdicts import Found, NoHoms, NotFoundUpToBound
from oracles import (
    dual_hom,
    formal_identity_holds,
    row_hnf_rank,
    symbolic_admissible_family,
    symbolic_hom_module,
)

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


def test_hom_module_refuses_a_codomain_dependent_over_q():
    # the periods 2 and 1 of T are dependent over Q: Hom(T, T) had rank 3,
    # with a generator whose analytic representation is 0
    T = PolarisedTorus(G2, [[2, 1]], standard_gram([1]))
    E = curve(TAU_E)
    for X in (T, E):
        with pytest.raises(PreconditionError, match="linearly dependent"):
            hom_module(X, T)
    # a dependent domain is taken: every member sends (1, -2), the relation
    # between T's periods, to 0, so it is singular
    gens = hom_module(T, E)
    assert len(gens) == 2 and all(det(g.rational_rep) == 0 for g in gens)


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
        col = ambient_to_lattice(A, [vec])[0]
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
    assert idempotent(emb_E).complement() == emb_F
    assert idempotent(emb_F).complement() == emb_E


def test_complement_of_everything_is_zero():
    E = curve(TAU_E)
    full = SubvarietyEmbedding(E, identity(2))
    comp = idempotent(full).complement()
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


@functools.cache
def _digest_pairs():
    """The 101 (tag, X, Y) pairs whose Hom modules and families HOMS_DIGEST pins."""
    G = GeneratorSet(("a", "b", "c"))
    pairs = []
    for d in (2, 3, 5, 7, 13):
        S, Sd = surface_pair(G, d)
        for k in (1, 2, 3):
            A = product([(S, Sd)[i % 2] for i in range(k)])
            B = product([(Sd, S)[i % 2] for i in range(k)])
            pairs += [(f"d={d} k={k} swap", A, B), (f"d={d} k={k} end", A, A),
                      (f"d={d} k={k} dual", A, A.dual().torus)]
    for name in ("ex-4.1", "ex-4.2", "ex-5.3", "lemma-5.4", "thm-3.2-generic"):
        docs = run_demo(name).documents
        tori = {key: torus_from_doc(doc) for key, doc in docs.items()}
        pairs += [(f"{name} {x} {y}", tori[x], tori[y]) for x in tori for y in tori]
    return tuple(pairs)


def _homs_digest():
    records = [[tag, _outcome(lambda: hom_module(X, Y), _hom_record),
                _outcome(lambda: admissible_family(X, Y), _family_record)]
               for tag, X, Y in _digest_pairs()]
    assert len(records) == 101
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def test_hom_module_and_admissible_family_digest():
    # pins every Hom generator (rational and analytic representation) and
    # every family basis and coordinate matrix across changes to how the
    # linear systems are built
    assert _homs_digest() == HOMS_DIGEST


def test_the_digest_is_the_same_on_tori_that_kept_their_facts():
    # the first pass builds the facts each torus keeps (or finds them built
    # by an earlier test); the second reads them and must agree entry for entry
    first = _homs_digest()
    assert all(T._slice is not None for T in _digest_tori())
    assert first == _homs_digest() == HOMS_DIGEST


def test_each_digest_generator_is_rebuilt_from_its_rendered_analytic_rep():
    # hom_module keeps F as the integer slice it checked; analytic_rep
    # renders it once, and the public constructor re-checks what it renders
    checked = 0
    for _, X, Y in _digest_pairs():
        try:
            gens = hom_module(X, Y)
        except PreconditionError:
            continue
        for g in gens:
            F = g.analytic_rep
            assert g.analytic_rep is F
            rebuilt = HomGenerator(g.domain, g.codomain, g.rational_rep, F)
            assert rebuilt == g and rebuilt.analytic_rep == F
            checked += 1
    assert checked == 334  # the generators of the 101 pairs


# -- the integer-polynomial systems against the symbolic reference ------------------

G_AB = GeneratorSet(("a", "b"))
_COEFFS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)])
_MONOS = st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)])


@st.composite
def _polynomials(draw):
    """0 about a third of the time, else up to three terms with Fraction coefficients."""
    if draw(st.integers(0, 2)) == 0:
        return G_AB.zero()
    terms = draw(st.dictionaries(_MONOS, _COEFFS, min_size=1, max_size=3))
    return FormalScalar(G_AB, terms)


@st.composite
def _constant_invertible(draw, n):
    """An n x n matrix of ints and Fractions with nonzero determinant."""
    entries = st.sampled_from([0, 0, 1, -1, 2, 3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)])
    R = [[draw(entries) for _ in range(n)] for _ in range(n)]
    assume(det(R) != 0)
    return R


def _torus(left, right):
    n = len(left)
    return PolarisedTorus(G_AB, [list(lrow) + list(rrow) for lrow, rrow in zip(left, right)],
                          standard_gram([1] * n))


@st.composite
def _left_blocks(draw, n):
    return [[draw(_polynomials()) for _ in range(n)] for _ in range(n)]


@st.composite
def _torus_pairs(draw, same_dim=False):
    """(X, Y) of dims 1-3 over two generators with constant invertible right
    blocks.  Y is random, X itself, or [Q Z_X | D_Y] for a constant invertible
    Q, which makes Hom(X, Y) nonzero."""
    n = draw(st.integers(1, 3))
    X = _torus(draw(_left_blocks(n)), draw(_constant_invertible(n)))
    kind = draw(st.sampled_from(["random", "same", "related"]))
    if kind == "same":
        return X, X
    if kind == "related":
        Q = draw(_constant_invertible(n))
        return X, _torus(matmul(Q, X.left_block()), draw(_constant_invertible(n)))
    m = n if same_dim else draw(st.integers(1, 3))
    return X, _torus(draw(_left_blocks(m)), draw(_constant_invertible(m)))


def _dependent_over_q(T):
    """Are the period columns of T linearly dependent over Q?"""
    flat = flatten_to_int([list(r) for r in T.periods])[0]
    return row_hnf_rank(flat) < len(flat[0])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_torus_pairs())
def test_hom_module_matches_the_symbolic_system(pair):
    X, Y = pair
    if _dependent_over_q(Y):
        with pytest.raises(PreconditionError, match="linearly dependent"):
            hom_module(X, Y)
        return
    got = [([list(r) for r in g.rational_rep], [list(r) for r in g.analytic_rep])
           for g in hom_module(X, Y)]
    assert got == symbolic_hom_module(X, Y)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_torus_pairs(same_dim=True))
def test_admissible_family_matches_the_symbolic_system(pair):
    A, Ahat = pair
    if _dependent_over_q(Ahat):
        with pytest.raises(PreconditionError, match="linearly dependent"):
            admissible_family(A, Ahat)
        return
    fam = admissible_family(A, Ahat)
    basis, coords = symbolic_admissible_family(A, Ahat)
    assert [[list(r) for r in B] for B in fam.basis] == basis
    assert [[list(r) for r in C] for C in fam.coordinates] == coords


@pytest.mark.parametrize("d", [3, 5, 7])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_sparse_systems_of_the_alternating_products_match_the_symbolic_ones(k, d):
    # S x S^ x S x ... and S^ x S x S^ x ...: the largest systems any test solves
    S, Sd = surface_pair(GeneratorSet(("a", "b", "c")), d)
    X = product([(S, Sd)[i % 2] for i in range(k)])
    Y = product([(Sd, S)[i % 2] for i in range(k)])
    got = [([list(r) for r in g.rational_rep], [list(r) for r in g.analytic_rep])
           for g in hom_module(X, Y)]
    assert len(got) == k * k and got == symbolic_hom_module(X, Y)
    fam = admissible_family(X, Y)
    assert ([[list(r) for r in B] for B in fam.basis],
            [[list(r) for r in C] for C in fam.coordinates]) == symbolic_admissible_family(X, Y)


# -- the self-check refuses every wrong identity ------------------------------------

@functools.cache
def _identity_cases():
    """(X, Y, M, L) for each Hom generator (L its F slice) and each family
    element (L its constant H) of the digest pairs: the identities
    period_identity_holds checks in the library.  Their F are constant, so
    the generators from each "end" torus X to X with its periods times
    a + 2, whose F are not, are added."""
    cases = []
    for tag, X, Y in _digest_pairs():
        if tag.endswith(" end"):
            scaled = [[(X.gens.scalar("a") + 2) * x for x in row] for row in X.periods]
            Z = PolarisedTorus(X.gens, scaled, X.gram)
            cases += [(X, Z, g.rational_rep, g._slice) for g in hom_module(X, Z)]
        try:
            cases += [(X, Y, g.rational_rep, g._slice) for g in hom_module(X, Y)]
            fam = admissible_family(X, Y)
        except PreconditionError:
            continue
        cases += [(X, Y, C, constant_slices(B))
                  for B, C in zip(fam.basis, fam.coordinates)]
    return cases


def _with_zero_terms(data, P, monos):
    """A copy of the integer polynomials P with up to four explicit 0 terms added."""
    P = [[dict(p) for p in row] for row in P]
    for _ in range(data.draw(st.integers(0, 4))):
        row = data.draw(st.sampled_from(P))
        row[data.draw(st.integers(0, len(row) - 1))].setdefault(data.draw(st.sampled_from(monos)), 0)
    return P


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_period_identity_holds_matches_the_formal_oracle(data):
    # the sparse check on integer slices against two formal matmuls, on the
    # real identities, on each with one entry of M or L changed, with rows of
    # M set to zero, on the zero map, and with explicit 0 coefficients in L,
    # P_X and P_Y; L and the periods hold empty polynomials throughout
    cases = _identity_cases()
    X, Y, M, (d, LS) = cases[data.draw(st.integers(0, len(cases) - 1))]
    M = [list(r) for r in M]
    (dX, PX), (dY, PY) = X.period_slice, Y.period_slice
    monos = sorted({mono for P in (LS, PX, PY) for row in P for p in row for mono in p})
    LS = _with_zero_terms(data, LS, monos)
    PX, PY = (_with_zero_terms(data, P, monos) if data.draw(st.booleans()) else P
              for P in (PX, PY))
    change = data.draw(st.sampled_from(["none", "M", "L", "zero rows", "zero map"]))
    delta = data.draw(st.sampled_from([-2, -1, 1, 3]))
    if change == "M":
        row = data.draw(st.sampled_from(M))
        row[data.draw(st.integers(0, len(row) - 1))] += delta
    elif change == "L":
        row = data.draw(st.sampled_from(LS))
        p = row[data.draw(st.integers(0, len(row) - 1))]
        mono = data.draw(st.sampled_from(monos))
        p[mono] = p.get(mono, 0) + delta
    elif change == "zero rows":
        for r in data.draw(st.sets(st.integers(0, len(M) - 1), min_size=1)):
            M[r] = [0] * len(M[r])
    elif change == "zero map":
        M = [[0] * len(row) for row in M]
        LS = [[{mono: 0 for mono in p} for p in row] for row in LS]
    unpack = _slice_packing(len(X.gens))[1]
    L = [[FormalScalar(X.gens, {unpack(mono): Fraction(c, d) for mono, c in p.items()})
          for p in row] for row in LS]
    expected = formal_identity_holds(L, X.periods, Y.periods, M)
    assert expected or change not in ("none", "zero map")
    assert period_identity_holds((d, LS), M, (dX, PX), (dY, PY)) == expected



def _ex41_standard_and_dual(n=3):
    """ex-4.1's quotient in its standard frame (D_X = diag(1, 3, ...)) and its dual."""
    dtype = (1,) + (3,) * (n - 1)
    tauF = G2.scalar("tau_F")
    left_B = [[tauF if i == j else G2.zero() for j in range(n - 1)] for i in range(n - 1)]
    X = quotient_display(G2, "tau_E", left_B, dtype)
    return X, X.dual().torus


def _generators():
    X, Y = _ex41_standard_and_dual()
    E2 = PolarisedTorus(G2, [[2 * TAU_E, 2]], standard_gram([1]))
    return hom_module(X, Y) + hom_module(Y, Y) + hom_module(E2, curve(TAU_E))


_MISMATCH = "representations do not satisfy F @ periods = periods @ M"


def test_hom_generator_accepts_fraction_analytic_representations():
    gens = _generators()
    with_fractions = [g for g in gens if any(c.denominator != 1 for row in g.analytic_rep
                                             for x in row for c in x.terms.values())]
    assert len(with_fractions) >= 2
    for g in gens:
        assert HomGenerator(g.domain, g.codomain, g.rational_rep, g.analytic_rep) == g
    E2 = PolarisedTorus(G2, [[2 * TAU_E, 2]], standard_gram([1]))
    g = HomGenerator(E2, curve(TAU_E), identity(2), [[Fraction(1, 2)]])
    assert g.analytic_rep == ((G2.constant(Fraction(1, 2)),),)


def test_hom_generator_refuses_an_analytic_coefficient_changed_by_a_half():
    for g in _generators():
        F = [list(r) for r in g.analytic_rep]
        for i, row in enumerate(F):
            for j, x in enumerate(row):
                mono = next(iter(x.terms), (0, 0))
                terms = dict(x.terms)
                terms[mono] = terms.get(mono, 0) + Fraction(1, 2)
                bad = [list(r) for r in F]
                bad[i][j] = FormalScalar(G2, terms)
                with pytest.raises(PreconditionError, match=_MISMATCH):
                    HomGenerator(g.domain, g.codomain, g.rational_rep, bad)


def test_hom_generator_refuses_a_rational_entry_changed_by_one():
    for g in _generators():
        for r, row in enumerate(g.rational_rep):
            for c in range(len(row)):
                bad = [list(x) for x in g.rational_rep]
                bad[r][c] += 1
                with pytest.raises(PreconditionError, match=_MISMATCH):
                    HomGenerator(g.domain, g.codomain, bad, g.analytic_rep)


def test_hom_generator_refuses_an_analytic_representation_over_other_generators():
    other = GeneratorSet(("x", "y"))
    for g in _generators():
        F = [[FormalScalar(other, x.terms) for x in row] for row in g.analytic_rep]
        with pytest.raises(PreconditionError,
                           match=r"cannot combine scalars over \('x', 'y'\) and "
                                 r"\('tau_E', 'tau_F'\)"):
            HomGenerator(g.domain, g.codomain, g.rational_rep, F)


# -- the facts each torus keeps -------------------------------------------------------

def _digest_tori():
    """Every distinct torus object of the digest pairs, the demo documents among them."""
    return list({id(T): T for _, X, Y in _digest_pairs() for T in (X, Y)}.values())


def _search_record(res):
    witness = getattr(res, "witness", None)
    return (type(res).__name__, res.tested, getattr(res, "coefficients", None),
            getattr(witness, "H", witness))


def _searches(X, Y):
    """Every search verdict on (X, Y) at bounds 1 and 2, or its refusal."""
    return [_outcome(search, _search_record) for bound in (1, 2)
            for search in (lambda: isom_search(X, Y, bound=bound),
                           lambda: isom_search(X, Y, bound=bound, polarised=True),
                           lambda: pp_search(X, Y, bound=bound))]


def _refusal(call):
    """The message of the PreconditionError call() raises, or None."""
    try:
        call()
    except PreconditionError as exc:
        return str(exc)
    return None


def test_no_caller_changes_the_facts_a_torus_keeps():
    # every consumer of the kept slice and flags runs on every digest torus;
    # afterwards each kept fact still equals the one computed afresh
    for _, X, Y in _digest_pairs():
        _refusal(lambda: hom_module(X, Y))
        _refusal(lambda: admissible_family(X, Y).pencil)
        _searches(X, Y)
    tori = _digest_tori()
    quotients = frames = 0
    for T in tori:
        for point in T.polarising_kernel()[:1]:
            T.quotient(point)
            quotients += 1
        _refusal(T.right_frame)
    for T in tori:
        # every fact was built by the calls above, so each is read as kept
        assert None not in (T._slice, T._independent, T._lattice)
        d, P = monomial_flatten(T.periods)
        assert T._slice[0] == d and [list(row) for row in T._slice[1]] == P
        assert T._independent == (row_hnf_rank(flatten_to_int(T.periods)[0]) == 2 * T.dim)
        assert T._lattice == lattice_det(P, len(T.gens))
        if T._frame is not None:
            DI, dI, K = T._frame
            R = constant_right_block(T.periods)
            assert ([list(r) for r in DI], dI) == tuple(rat_inverse(R))
            # P_X @ K_X = 0 by a formal matmul, and K_X has rank n: it does
            # at the origin of the generators, where its entries are constants
            unpack = _slice_packing(len(T.gens))[1]
            KF = [[FormalScalar(T.gens, {unpack(mono): c for mono, c in p.items()}) for p in row]
                  for row in K]
            assert all(x.is_zero() for row in matmul([list(r) for r in T.periods], KF) for x in row)
            assert row_hnf_rank([[p.get(0, 0) for p in row] for row in K]) == T.dim
            fresh = PolarisedTorus(T.gens, T.periods, T.gram)
            assert fresh._frame is None and fresh.right_frame() == T._frame
            frames += 1
    assert quotients > 0 and frames > 0


def test_a_refusal_is_raised_again_on_every_call():
    t = GeneratorSet(("t",)).scalar("t")
    E = PolarisedTorus(t.gens, [[t, 1]], standard_gram([1]))
    moving = PolarisedTorus(t.gens, [[1, t]], standard_gram([1]))  # right block t
    singular = PolarisedTorus(t.gens, [[t, 0]], standard_gram([1]))  # right block 0
    dependent = PolarisedTorus(t.gens, [[2, 1]], standard_gram([1]))  # 2 - 2 * 1 = 0
    cases = [(moving, E, "right period block is not constant"),
             (singular, E, "right period block is singular over Q"),
             (E, dependent, "the codomain's periods are linearly dependent over Q")]
    for X, Y, message in cases:
        for call in (lambda: hom_module(X, Y), lambda: isom_search(X, Y, bound=1)):
            first = _refusal(call)
            assert first is not None and first.startswith(message)
            assert _refusal(call) == first
        if X is not E:
            assert X._frame is None  # a refused frame is not kept
    # a dependent target of a family is refused on every call, too
    for call in (lambda: admissible_family(E, dependent), lambda: pp_search(E, dependent)):
        first = _refusal(call)
        assert first == "the target's periods are linearly dependent over Q"
        assert _refusal(call) == first
    assert dependent.periods_independent is False and E.periods_independent is True


def test_searches_on_tori_that_kept_their_facts_match_those_on_fresh_tori():
    def fresh(T):
        return PolarisedTorus(T.gens, T.periods, T.gram, T.assumptions)

    found = 0
    for tag, X, Y in _digest_pairs():
        _searches(X, Y)  # builds the facts, if no earlier test did
        warm = _searches(X, Y)
        cold = _searches(fresh(X), fresh(Y))
        assert warm == cold, tag
        found += sum(r[0] == "Found" for r in warm)
    assert found > 0
