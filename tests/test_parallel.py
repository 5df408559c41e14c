import hashlib
import json
import multiprocessing
import os
import random
import tracemalloc
from fractions import Fraction
from itertools import product as iter_product
from math import gcd

import pytest

from avtk import demos, homs, parallel, ppsearch
from avtk.demos import run_demo, surface_pair
from avtk.documents import torus_from_doc
from avtk.errors import PreconditionError
from avtk.homs import hom_module, isom_search
from avtk.intlinalg import det_polynomial, identity, lattice_det, matmul
from avtk.ppsearch import admissible_family, pp_search
from avtk.scalars import GeneratorSet, monomial_flatten
from avtk.torus import PolarisedTorus, product, standard_gram
from avtk.verdicts import Found, NotFoundUpToBound
from oracles import per_candidate_search

G = GeneratorSet(("a", "b", "c"))


def swapped_pair(d):
    """A (1, d) surface times its dual, and the swapped product (ex-5.3 at d = 3)."""
    S, Sd = surface_pair(G, d)
    return product([S, Sd]), product([Sd, S])


# -- the pencil engine's prefilter -----------------------------------------------

def test_common_factor_of_the_determinant_skips_the_enumeration(monkeypatch):
    ex41 = run_demo("ex-4.1", n=3, bound=1)
    X = torus_from_doc(ex41.documents["quotient-standard"])
    Xhat = torus_from_doc(ex41.documents["dual"])

    def no_enumeration(*args):
        raise AssertionError("the search enumerated candidates")

    monkeypatch.setattr(parallel, "run_search", no_enumeration)
    res = isom_search(X, Xhat, bound=2)
    # det(sum c_i M_i) has content 9, so no member is unimodular; the count
    # is the one an exhaustive run reports (End has rank 5)
    assert isinstance(res, NotFoundUpToBound)
    assert res.tested == 5 ** 5


def test_a_search_the_prefilter_ends_takes_memory_independent_of_the_bound():
    # ex-4.1's quotient and its dual have a Hom module of rank 2 whose
    # determinant has content above 1; the box is counted, never listed
    ex41 = run_demo("ex-4.1")
    X = torus_from_doc(ex41.documents["quotient-standard"])
    Xhat = torus_from_doc(ex41.documents["dual"])
    tracemalloc.start()
    try:
        res = isom_search(X, Xhat, bound=10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(res, NotFoundUpToBound)
    assert res.tested == 2000001 ** 2
    assert peak < 2**20


# -- the row-at-a-time loop against the per-candidate oracle -------------------

def _random_sparse(rng, rank, terms, constant=True):
    """A random sparse polynomial in c_0 .. c_{rank-1}, in run_search's form."""
    out = []
    for _ in range(terms):
        coeff = rng.choice((-3, -2, -1, 1, 2, 3))
        mono = [rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(rank)]
        if not constant and not any(mono):
            mono[rng.randrange(rank)] = 1
        out.append((coeff, mono))
    return parallel._sparse(out)


def _det_parities(det_p, rank):
    """The parity table a Pencil builds for det_p."""
    return frozenset(e for e in iter_product((0, 1), repeat=rank)
                     if parallel._evaluate(det_p, e) & 1)


def test_run_search_agrees_with_the_per_candidate_oracle():
    rng = random.Random(20261019)
    hits = misses = 0
    for _ in range(3000):
        rank, bound = rng.randint(1, 4), rng.randint(1, 3)
        det_p = _random_sparse(rng, rank, rng.randint(1, 5))
        positive = tuple(_random_sparse(rng, rank, rng.randint(1, 3))
                         for _ in range(rng.randint(0, 2)))
        zero = tuple(_random_sparse(rng, rank, rng.randint(1, 2), constant=False)
                     for _ in range(rng.randint(0, 1)))
        table = rng.choice(("all", "det", "subset"))
        parities = frozenset(iter_product((0, 1), repeat=rank))
        if table == "det":
            parities = _det_parities(det_p, rank)
        elif table == "subset":
            parities = frozenset(e for e in iter_product((0, 1), repeat=rank)
                                 if rng.random() < 0.5)
        args = (rank, bound, det_p, positive, zero, parities)
        expected = per_candidate_search(*args)
        assert parallel.run_search(*args) == expected, args
        hits += expected is not None
        misses += expected is None
    assert hits > 600 and misses > 600


# -- edge cases of the row-at-a-time loop --------------------------------------

def _both(rank, bound, det_p, positive=(), zero=()):
    """run_search with every parity admitted and with the determinant's
    parity table, checked against the oracle."""
    out = []
    every = frozenset(iter_product((0, 1), repeat=rank))
    for parities in (every, _det_parities(det_p, rank)):
        args = (rank, bound, det_p, positive, zero, parities)
        res = parallel.run_search(*args)
        assert res == per_candidate_search(*args)
        out.append(res)
    assert out[0] == out[1]
    return out[0]


def test_rank_one_search_has_an_empty_prefix():
    # c^2 - 3 is +-1 first at c = 2, the fourth value of 0, 1, -1, 2, ...
    assert _both(1, 3, parallel._sparse([(1, (2,)), (-3, (0,))])) == (3, (2,))
    res = parallel.Pencil([[[1]]]).search(3)
    assert isinstance(res, Found)
    assert (res.coefficients, res.tested, res.witness) == ((1,), 2, ((1,),))


def test_determinant_free_of_the_last_coordinate():
    # c_0 - 2 does not involve c_1: the row of c_0 = 1 is hit at its first value
    det_p = parallel._sparse([(1, (1, 0)), (-2, (0, 0))])
    assert _both(2, 2, det_p) == (5, (1, 0))
    assert parallel._split_last(det_p, 1) == (det_p,)


def test_hit_at_index_zero_counts_one_tested():
    det_p = parallel._sparse([(1, (0, 0, 0))])
    assert _both(3, 2, det_p) == (0, (0, 0, 0))


def test_hit_on_the_last_vector_of_the_box():
    # c_0 + c_1 + 5 is +-1 only at (-2, -2), the last vector at bound 2
    det_p = parallel._sparse([(1, (1, 0)), (1, (0, 1)), (5, (0, 0))])
    assert _both(2, 2, det_p) == (5 ** 2 - 1, (-2, -2))


def test_positive_condition_rejects_a_unit_before_a_later_hit_in_its_row():
    # det = c_1 is +-1 at c_1 = 1 and c_1 = -1 in the row of c_0 = 0;
    # -c_1 > 0 rejects the first, so the hit is the row's third value
    det_p = parallel._sparse([(1, (0, 1))])
    minus_c1 = [(-1, (0, 1))]
    assert _both(2, 2, det_p, positive=(parallel._sparse(minus_c1),)) == (2, (0, -1))
    res = parallel.Pencil([[[0]], [[1]]], positive=[minus_c1]).search(2)
    assert (res.coefficients, res.tested) == ((0, -1), 3)


def test_a_rank_eleven_pencil_is_searched_with_its_parity_table(monkeypatch):
    # det = c_0 + ... + c_10 is odd where an odd number of coordinates is
    seen = []
    run_search = parallel.run_search

    def spy(*args):
        seen.append(args[-1])
        return run_search(*args)

    monkeypatch.setattr(parallel, "run_search", spy)
    res = parallel.Pencil([[[1]]] * 11).search(1)
    assert (res.coefficients, res.tested) == ((0,) * 10 + (1,), 2)
    assert seen == [frozenset(e for e in iter_product((0, 1), repeat=11) if sum(e) & 1)]


# -- one Pencil, many searches ----------------------------------------------------

def _counting(monkeypatch, calls):
    """Count det_polynomial calls from parallel and ppsearch."""
    det_polynomial = parallel.det_polynomial

    def counted(mats):
        calls.append(len(mats[0]))
        return det_polynomial(mats)

    monkeypatch.setattr(parallel, "det_polynomial", counted)
    monkeypatch.setattr(ppsearch, "det_polynomial", counted)


@pytest.mark.parametrize("d", [3, 5])
def test_a_family_builds_its_search_polynomials_once(d, monkeypatch):
    A, Ahat = swapped_pair(d)
    fresh = [pp_search(A, Ahat, bound) for bound in (2, 3)]
    calls = []
    _counting(monkeypatch, calls)
    fam = admissible_family(A, Ahat)
    assert calls == []  # the pencil is built on the first search, not here
    assert [pp_search(A, Ahat, bound, fam) for bound in (2, 3)] == fresh
    # the 4 leading minors of H; the top one is det H, whose square the 8 x 8
    # coordinate determinant is up to a constant, so that one is not taken
    assert sorted(calls) == [1, 2, 3, 4]
    assert fam.pencil is fam.pencil


# -- the analytic route -----------------------------------------------------------

def _square(terms):
    """f**2 for f in det_polynomial's form, as {exponents: coefficient}."""
    out = {}
    for c1, m1 in terms:
        for c2, m2 in terms:
            mono = tuple(map(sum, zip(m1, m2)))
            out[mono] = out.get(mono, 0) + c1 * c2
    return {mono: c for mono, c in out.items() if c}


def _demo_hom_pencils():
    """(label, X, Y) for the Hom(A, Ahat) pencils of the self-dual searches."""
    for name, ns in (("ex-4.1", (2, 3, 4, 5)), ("ex-4.2", (2, 3, 4))):
        for n in ns:
            docs = run_demo(name, n=n, bound=1).documents
            yield f"{name} n={n}", torus_from_doc(docs["quotient-standard"]), torus_from_doc(
                docs["dual"])
    for d in range(2, 14):
        A, Ahat = swapped_pair(d)
        yield f"S x S^ -> S^ x S d={d}", A, Ahat


def _assert_kappa_times_square(mats, analytic, kappa, label):
    """That det(sum(c_i * mats[i])) is kappa * f**2, f = det(sum(c_i * analytic[i])),
    for the kappa the tori give, and that the pencil's plan agrees with its content."""
    det_p = {tuple(mono): c for c, mono in det_polynomial(mats)}
    f = det_polynomial(analytic)
    square = _square(f)
    assert det_p.keys() == square.keys(), label
    assert all(det_p[mono] == kappa * c for mono, c in square.items()), label
    content = abs(kappa) * gcd(*(c for c, _ in f)) ** 2
    assert content.denominator == 1, label
    # the content the pencil reads from kappa gives the same verdict
    plan = parallel.Pencil._analytic(mats, f, kappa)._search_polynomial()
    assert (plan != ()) == (content == 1), label
    return content


def test_each_pencil_determinant_is_kappa_times_the_analytic_one_squared():
    # kappa comes from the lattice determinants the two tori keep; the oracle
    # is det M / f**2, both expanded as polynomials
    contents = {}
    for label, X, Y in _demo_hom_pencils():
        gens = hom_module(X, Y)
        analytic = homs._analytic_pencil(gens)
        assert analytic is not None, label  # constant F, periods that span a lattice
        contents[label] = _assert_kappa_times_square(
            [g.rational_rep for g in gens], *analytic, label)
    for d in range(2, 14):
        A, Ahat = swapped_pair(d)
        fam = admissible_family(A, Ahat)
        assert fam._checked()
        contents[f"family d={d}"] = _assert_kappa_times_square(
            fam.coordinates, fam.basis, parallel.kappa(A, Ahat), d)
    # the self-dual searches end at the content; the swap and the families do not
    assert all(contents[f"{name} n={n}"] > 1 for name in ("ex-4.1", "ex-4.2") for n in (2, 3, 4))
    assert contents["ex-4.1 n=5"] > 1
    assert all(contents[f"S x S^ -> S^ x S d={d}"] == 1 for d in range(2, 14))
    assert all(contents[f"family d={d}"] == 1 for d in range(2, 14))


def _unimodular(rng, size):
    """A random integer matrix of determinant 1 and its inverse, from row operations."""
    T, Ti = identity(size), identity(size)
    for _ in range(3 * size):
        i, j = rng.sample(range(size), 2)
        k = rng.choice((-2, -1, 1, 2))
        T[i] = [a + k * b for a, b in zip(T[i], T[j])]  # row i += k * row j
        for row in Ti:  # column j -= k * column i
            row[j] -= k * row[i]
    assert matmul(T, Ti) == identity(size)
    return T, Ti


def test_a_synthetic_pencil_searches_alike_on_both_routes(monkeypatch):
    # M_i = T^-1 diag(F_i, F_i) T has det M(c) = det F(c)**2 exactly
    rng = random.Random(20261020)
    sizes = []
    det_polynomial = parallel.det_polynomial

    def spy(mats):
        sizes.append(len(mats[0]))
        return det_polynomial(mats)

    monkeypatch.setattr(parallel, "det_polynomial", spy)
    kinds = set()
    for trial in range(150):
        rank, n = rng.randint(1, 3), rng.randint(1, 3)
        scale = rng.choice((1, 1, 1, 2))  # 2: content 16 at least
        F = [[[scale * rng.choice((-1, 0, 0, 1, 2)) for _ in range(n)] for _ in range(n)]
             for _ in range(rank)]
        if trial % 10 == 0:  # every member singular
            for Fi in F:
                Fi[0] = [0] * n
        T, Ti = _unimodular(rng, 2 * n)
        zero = [[0] * n for _ in range(n)]
        mats = [matmul(Ti, matmul([r + z for r, z in zip(Fi, zero)]
                                  + [z + r for r, z in zip(Fi, zero)], T)) for Fi in F]
        positive = [[(rng.choice((-1, 1, 2)), [rng.choice((0, 1, 2)) for _ in range(rank)])]
                    ] if rng.random() < 0.3 else []
        f = det_polynomial(F)
        sizes.clear()
        pencil = parallel.Pencil._analytic(mats, f, 1, positive)
        got = [pencil.search(bound) for bound in (1, 2, 3)]
        assert sizes == [], sizes  # no 2n x 2n determinant was taken
        rational = parallel.Pencil(mats, positive)
        assert got == [rational.search(bound) for bound in (1, 2, 3)], (F, T)
        kinds.update(type(r).__name__ for r in got)
    assert kinds == {"Found", "NotFoundUpToBound"}


@pytest.mark.parametrize("d", [3, 5])
def test_a_changed_analytic_entry_is_refused_at_the_seeded_member(d, monkeypatch):
    A, Ahat = swapped_pair(d)
    gens = hom_module(A, Ahat)
    fam = admissible_family(A, Ahat)
    pencils = [([g.rational_rep for g in gens], *homs._analytic_pencil(gens)),
               (fam.coordinates, fam.basis, parallel.kappa(A, Ahat))]
    calls = []
    _counting(monkeypatch, calls)
    for mats, analytic, kappa in pencils:
        mutant = [[list(row) for row in F] for F in analytic]
        mutant[0][0][0] += 1
        f = det_polynomial(mutant)
        calls.clear()
        pencil = parallel.Pencil._analytic(mats, f, kappa)
        with pytest.raises(AssertionError, match="kappa"):
            pencil.search(1)
        assert calls == []  # no fallback: the rational determinant is not taken
        # the unchanged analytic pencil passes its check and searches alike
        pencil = parallel.Pencil._analytic(mats, det_polynomial(analytic), kappa)
        assert [pencil.search(b) for b in (1, 2)] == [
            parallel.Pencil(mats).search(b) for b in (1, 2)]


def test_a_family_whose_periods_span_no_lattice_keeps_the_rational_route():
    # the rows of Z = [[a, b], [2a, 2b]] are proportional: [P(z); P(w)] is
    # singular everywhere, and det C is not a multiple of det(H)**2 here
    G2 = GeneratorSet(("a", "b"))
    a, b = G2.scalar("a"), G2.scalar("b")
    X = PolarisedTorus(G2, [[a, b, 1, 0], [2 * a, 2 * b, 0, 1]], standard_gram([1, 1]))
    assert lattice_det(monomial_flatten(X.periods)[1], len(G2)) == 0
    fam = admissible_family(X, X)
    assert fam.rank == 2 and not fam._checked()
    assert fam.pencil._analytic_det is None
    f = det_polynomial(fam.basis)
    det_c, square = {tuple(m): c for c, m in det_polynomial(fam.coordinates)}, _square(f)
    kappa = Fraction(det_c[max(square)], square[max(square)])
    assert any(det_c.get(mono, 0) != kappa * c for mono, c in square.items())
    S, Sd = surface_pair(G, 3)
    assert lattice_det(monomial_flatten(product([S, Sd]).periods)[1], len(G))


def _random_pencil(rng):
    rank, n = rng.randint(1, 3), rng.randint(1, 3)
    scale = rng.choice((1, 1, 1, 2))  # 2: the content rules every member out
    mats = [[[scale * rng.choice((-1, 0, 0, 1, 2)) for _ in range(n)] for _ in range(n)]
            for _ in range(rank)]
    positive = [[(rng.choice((-1, 1, 2)), [rng.choice((0, 1, 2)) for _ in range(rank)])
                 for _ in range(rng.randint(1, 2))] for _ in range(rng.randint(0, 1))]
    return mats, positive


def test_a_pencil_searched_at_several_bounds_matches_fresh_searches():
    rng = random.Random(2510)
    kinds = set()
    for _ in range(300):
        mats, positive = _random_pencil(rng)
        pencil = parallel.Pencil(mats, positive)
        bounds = [1, 2, 3] * 2
        rng.shuffle(bounds)
        for bound in bounds:
            res = pencil.search(bound)
            assert res == parallel.Pencil(mats, positive).search(bound), (mats, positive, bound)
            kinds.add((type(res).__name__, bound))
    assert kinds == {(kind, b) for kind in ("Found", "NotFoundUpToBound") for b in (1, 2, 3)}


def test_changing_the_input_lists_after_building_a_pencil_changes_no_verdict():
    mats = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    positive = [[(1, [1, 0])]]  # c_0 > 0
    expected = [parallel.Pencil(mats, positive).search(bound) for bound in (1, 2)]
    for searched_first in (False, True):
        M, P = [[list(row) for row in A] for A in mats], [[(1, [1, 0])]]
        pencil = parallel.Pencil(M, P)
        if searched_first:
            assert pencil.search(1) == expected[0]
        M[0][0][0] = 2  # no member is unimodular now
        M[1].append([5, 5])
        P[0][0][1][0] = 0  # the condition would read 1 > 0
        P.append([(-1, [0, 0])])  # and -1 > 0 would refuse every member
        assert [pencil.search(bound) for bound in (1, 2)] == expected
    with pytest.raises(AttributeError, match="Pencil is immutable"):
        pencil.mats = ()


def test_a_pencil_over_the_cap_at_every_bound_builds_no_parity_table(monkeypatch):
    # det = c_0 + ... + c_19 has content 1; 3**20 > MAX_CANDIDATES
    def no_table(*args):
        raise AssertionError("the parity table was built")

    monkeypatch.setattr(parallel, "_evaluate", no_table)
    pencil = parallel.Pencil([[[1]]] * 20)
    for bound in (1, 2):
        with pytest.raises(PreconditionError, match="exceeds the cap"):
            pencil.search(bound)


# -- the bound check -------------------------------------------------------------

RANK3 = [[[1, 0], [0, 0]], [[0, 1], [1, 0]], [[0, 0], [0, 1]]]


@pytest.mark.parametrize("bound, message", [
    (0, "at least 1"), (-1, "at least 1"),
    (2.5, "an int, not float"), (True, "an int, not bool"), ("3", "an int, not str"),
])
def test_a_bad_bound_is_refused_before_any_work(bound, message, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the search built its pencil")

    monkeypatch.setattr(ppsearch, "admissible_family", no_work)
    monkeypatch.setattr(homs, "hom_module", no_work)
    monkeypatch.setattr(parallel, "det_polynomial", no_work)
    A, Ahat = swapped_pair(3)
    for search in (lambda: parallel.Pencil(RANK3).search(bound),
                   lambda: ppsearch.pp_search(A, Ahat, bound),
                   lambda: homs.isom_search(A, Ahat, bound)):
        with pytest.raises(PreconditionError, match=f"search bound must be {message}"):
            search()


# -- the search results ---------------------------------------------------------
# The test_parallel_* names date from a two-worker search path; each pins
# the result that every run of the search must give.

EX53_WITNESS = (
    (0, 0, 1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1, 0, 0),
)

SEARCH_RESULTS_DIGEST = "1aa9aeed9e1341ab1480fc8a3839114cd6a95afde883665de3c72787740bce1b"


def test_parallel_isom_search_matches_sequential():
    A, Ahat = swapped_pair(3)
    res = isom_search(A, Ahat, bound=3)
    assert isinstance(res, Found) and res.tested == 57
    assert (res.witness, res.coefficients) == (EX53_WITNESS, (0, 1, 1, 0))


def test_parallel_pp_search_matches_sequential():
    A, Ahat = swapped_pair(3)  # the lemma-5.4 family
    fam = admissible_family(A, Ahat)
    res = pp_search(A, Ahat, bound=3, family=fam)
    assert isinstance(res, NotFoundUpToBound)
    assert res.tested == 7 ** 3


def test_parallel_pp_search_finds_the_sequential_witness():
    A, Ahat = swapped_pair(5)
    res = pp_search(A, Ahat, bound=3)
    assert isinstance(res, Found)
    assert res.tested == 72 and res.coefficients == (1, 2, 1)
    assert res.witness.H == ((5, 0, 2, 0), (0, 1, 0, 2), (2, 0, 1, 0), (0, 2, 0, 5))


def _search_record(res):
    """Verdict, tested, coefficients and witness rows of a search result."""
    witness = getattr(res, "witness", None)
    rows = getattr(witness, "H", witness)
    return [type(res).__name__, res.tested, list(getattr(res, "coefficients", ())),
            [list(row) for row in rows or ()]]


def test_search_results_digest(monkeypatch):
    # pins the results of the determinant-driven searches across changes to
    # det_polynomial: any change in verdict, count or witness changes it
    records = []
    for d in (2, 3, 5, 7, 13):
        A, Ahat = swapped_pair(d)
        fam = admissible_family(A, Ahat)
        for bound in (6, 25):
            records.append(["pp", d, bound, _search_record(pp_search(A, Ahat, bound, fam))])
        for tag, Y in (("swap", Ahat), ("dual", A.dual().torus)):
            for polarised in (False, True):
                for bound in (1, 2, 3):
                    res = isom_search(A, Y, bound=bound, polarised=polarised)
                    records.append(["isom", d, tag, polarised, bound, _search_record(res)])
    searched = []

    def recorded(X, Y, bound=10, polarised=False):
        res = isom_search(X, Y, bound=bound, polarised=polarised)
        searched.append(_search_record(res))
        return res

    monkeypatch.setattr(demos, "isom_search", recorded)
    for name in ("ex-4.1", "ex-4.2"):
        for n in (3, 4):
            run_demo(name, n=n)
            records.append([name, n, searched.pop()])
    assert len(records) == 74 and not searched
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == SEARCH_RESULTS_DIGEST


# -- no worker process --------------------------------------------------------

def _results():
    A, Ahat = swapped_pair(3)
    iso = isom_search(A, Ahat, bound=3)
    A, Ahat = swapped_pair(5)
    return iso, pp_search(A, Ahat, bound=3)


def test_searches_start_no_worker_whatever_avtk_threads_says(monkeypatch):
    monkeypatch.delenv("AVTK_THREADS", raising=False)
    unset = _results()
    monkeypatch.setenv("AVTK_THREADS", "2")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _results() == unset
    assert multiprocessing.active_children() == []
