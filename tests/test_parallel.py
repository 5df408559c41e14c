import os
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

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


@pytest.fixture(autouse=True)
def no_cached_pool(monkeypatch):
    """Each test starts with no search pool and shuts down the one it started."""
    monkeypatch.setattr(parallel, "_pool", None)
    yield
    if parallel._pool is not None:
        parallel._pool[1].shutdown()


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
    shut = 0

    def __init__(self, max_workers, initializer=None):
        time.sleep(0.001)  # starting takes a while: let other threads run
        self.sizes.append(max_workers)

    def map(self, fn, jobs):
        return [fn(job) for job in jobs]

    def shutdown(self, wait=True):
        type(self).shut += 1


class _BrokenPool(_InlinePool):
    """A pool whose workers have died."""

    def map(self, fn, jobs):
        raise BrokenProcessPool("a worker died")


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


def test_consecutive_searches_share_one_pool(monkeypatch):
    monkeypatch.setenv("AVTK_THREADS", "64")
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _InlinePool)
    _InlinePool.sizes = []
    for bound in (2, 2):
        assert parallel.run_search(_first_nonzero, None, 2, bound) == (1, 1)
    assert _InlinePool.sizes == [5]  # the second search reuses the first one's pool
    for bound in (3, 2, 3):
        assert parallel.run_search(_first_nonzero, None, 2, bound) == (1, 1)
    assert _InlinePool.sizes == [5, 7]  # bound 3 needs 7 workers: a pool starts only to grow


def test_searches_on_many_threads_keep_one_pool(monkeypatch):
    monkeypatch.setenv("AVTK_THREADS", "64")
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _InlinePool)
    _InlinePool.sizes, _InlinePool.shut = [], 0
    results = []

    def searches(seed):
        for i in range(40):
            results.append(parallel.run_search(_first_nonzero, None, 2, 2 + (seed + i) % 4))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=searches, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [(1, 1)] * 320
    # every pool but the cached one was shut down, and pools only grew
    assert len(_InlinePool.sizes) - _InlinePool.shut == 1
    assert _InlinePool.sizes == sorted(set(_InlinePool.sizes))


def test_a_broken_pool_is_replaced(monkeypatch):
    monkeypatch.setenv("AVTK_THREADS", "2")
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _BrokenPool)
    _InlinePool.sizes = []
    with pytest.raises(BrokenProcessPool):
        parallel.run_search(_first_nonzero, None, 2, 2)
    assert parallel._pool is None
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _InlinePool)
    assert parallel.run_search(_first_nonzero, None, 2, 2) == (1, 1)
    assert _InlinePool.sizes == [2, 2]


_KILLED_PARENT = """
import multiprocessing, os, signal
from avtk import parallel
os.environ["AVTK_THREADS"] = "2"
parallel.os.cpu_count = lambda: 2
assert parallel.pencil_search([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], 2) is not None
print(*(p.pid for p in multiprocessing.active_children()), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def _running(pid):
    """Is pid a live process (not gone, not a zombie)?"""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_workers_exit_when_their_parent_is_killed(tmp_path):
    # a killed parent runs no exit hook; its idle workers must not linger.
    # Output goes to a file: workers holding a pipe open would block the read.
    out = tmp_path / "out.txt"
    with open(out, "w") as fh:
        code = subprocess.run([sys.executable, "-c", _KILLED_PARENT], stdout=fh,
                              stderr=subprocess.STDOUT, timeout=60).returncode
    assert code == -9, out.read_text()
    workers = [int(pid) for pid in out.read_text().split()]
    assert len(workers) == 2
    deadline = time.monotonic() + 10
    while any(_running(pid) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(_running(pid) for pid in workers)


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
    """Run searches on 2 worker processes, whatever the host's CPU count.

    The autouse no_cached_pool fixture starts each test with no pool and
    shuts down the one the parallel run started.
    """
    started = []

    class RecordingPool(parallel.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)

    def run(search, *args, **kwargs):
        monkeypatch.setenv("AVTK_THREADS", "1")
        sequential = search(*args, **kwargs)
        assert started == []
        monkeypatch.setenv("AVTK_THREADS", "2")
        parallel_ = search(*args, **kwargs)
        assert started == [2]
        again = search(*args, **kwargs)
        assert started == [2]  # the second parallel search reuses the pool
        assert (again.tested, getattr(again, "coefficients", None)) == (
            parallel_.tested, getattr(parallel_, "coefficients", None))
        started.clear()
        return sequential, again

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
