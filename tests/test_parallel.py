import pytest

from avtk import parallel
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


# -- the worker cap ------------------------------------------------------------

@pytest.mark.parametrize(
    "raw,cpus,expected",
    [
        (None, 8, 1),
        ("1", 8, 1),
        ("4", 8, 4),
        ("64", 2, 2),
        ("1000000", 4, 4),
        ("0", 8, 1),
        ("-3", 8, 1),
        ("many", 8, 1),
        ("4", None, 1),  # os.cpu_count() may be unknown
    ],
)
def test_thread_count_is_capped_at_the_cpu_count(monkeypatch, raw, cpus, expected):
    if raw is None:
        monkeypatch.delenv("AVTK_THREADS", raising=False)
    else:
        monkeypatch.setenv("AVTK_THREADS", raw)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
    assert parallel.thread_count() == expected


class _InlinePool:
    """Stands in for the process pool: records its size, runs jobs in-process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return [fn(job) for job in jobs]


def _first_nonzero(args):
    common, first_values, base = args
    for i, v in enumerate(first_values):
        if v != 0:
            return base + i, v
    return None


@pytest.mark.parametrize("bound,slabs", [(2, 5), (3, 7)])
def test_pool_is_sized_to_the_slabs(monkeypatch, bound, slabs):
    monkeypatch.setenv("AVTK_THREADS", "64")
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _InlinePool)
    _InlinePool.sizes = []
    assert parallel.run_search(_first_nonzero, None, 2, bound) == (1, 1)
    assert _InlinePool.sizes == [slabs]  # one value per slab, not 64 workers


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


# -- the parallel path agrees with the sequential one ----------------------------

@pytest.fixture
def two_workers(monkeypatch):
    """Run searches on 2 worker processes, whatever the host's CPU count."""
    started = []

    class RecordingPool(parallel.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)

    def run(search, *args, **kwargs):
        monkeypatch.setenv("AVTK_THREADS", "1")
        sequential = search(*args, **kwargs)
        assert started == []
        monkeypatch.setenv("AVTK_THREADS", "2")
        parallel_ = search(*args, **kwargs)
        assert started == [2]
        started.clear()
        return sequential, parallel_

    return run


def test_parallel_isom_search_matches_sequential(two_workers):
    A, Ahat = swapped_pair(3)
    seq, par = two_workers(isom_search, A, Ahat, bound=3)
    assert isinstance(par, Found) and par.tested == 57
    assert (par.witness, par.coefficients, par.tested) == (
        seq.witness, seq.coefficients, seq.tested)


def test_parallel_pp_search_matches_sequential(two_workers):
    A, Ahat = swapped_pair(3)  # the lemma-5.4 family
    fam = admissible_family(A, Ahat)
    seq, par = two_workers(pp_search, A, Ahat, bound=3, family=fam)
    assert isinstance(par, NotFoundUpToBound)
    assert par.tested == seq.tested == 7 ** 3


def test_parallel_pp_search_finds_the_sequential_witness(two_workers):
    A, Ahat = swapped_pair(5)
    seq, par = two_workers(pp_search, A, Ahat, bound=3)
    assert isinstance(par, Found)
    assert (par.witness, par.coefficients, par.tested) == (
        seq.witness, seq.coefficients, seq.tested)
