import hashlib
import json
import multiprocessing
import os
import tracemalloc

from avtk import demos, parallel
from avtk.demos import run_demo
from avtk.documents import torus_from_doc
from avtk.homs import isom_search
from avtk.ppsearch import admissible_family, pp_search
from avtk.scalars import GeneratorSet
from avtk.torus import PolarisedTorus, product, standard_gram
from avtk.verdicts import Found, NotFoundUpToBound

G = GeneratorSet(("a", "b", "c"))
A_, B_, C_ = G.gens()


def swapped_pair(d):
    """A (1, d) surface times its dual, and the swapped product (ex-5.3 at d = 3)."""
    S = PolarisedTorus(G, [[A_, B_, 1, 0], [B_, C_, 0, d]], standard_gram([1, d]))
    Sd = PolarisedTorus(G, [list(r) for r in S.dual().display_periods], standard_gram([d, 1]))
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
