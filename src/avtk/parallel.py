"""The bounded coefficient search over an integer matrix pencil.

Both bounded searches ask for the first integer vector c, |c_i| <= bound,
whose pencil member sum(c_i * C_i) is unimodular and meets side
conditions that are polynomial in c: an isomorphism search may also ask
that a form pulls back (polynomials that must vanish), the principal
polarisation search that the leading principal minors of a symmetric
matrix are positive.  pencil_search computes det(sum(c_i * C_i)) once,
as a polynomial, and evaluates it and the side conditions per candidate.

Before any enumeration it rules out whole searches: when the coefficients
of the determinant have a common factor above 1 no member is unimodular,
and a table of the parity vectors at which the determinant is odd skips
most candidates without evaluating anything else.  A search that is not
ruled out and has more than MAX_CANDIDATES coefficient vectors is refused.

Coefficient vectors are enumerated with each coordinate running through
0, 1, -1, 2, -2, ..., bound, -bound, lexicographically.  The search can be
partitioned over the first coordinate into independent slabs; every slab
scans in increasing global enumeration index, so taking the hit with the
smallest index reproduces the sequential result exactly.  AVTK_THREADS
sets the worker count, capped at the CPU count and at the number of
slabs; unset or 1 means fully sequential.

The slabs run on one process pool per process.  It starts at the first
parallel search and is reused by every later one; a search that needs
more workers than it has replaces it, and a broken pool is dropped so
that the next search starts afresh.  Its workers exit with the process,
joined by concurrent.futures' own exit hook; a worker whose parent was
killed without running that hook exits by itself.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from itertools import product as iter_product
from math import gcd

from .errors import PreconditionError
from .intlinalg import det_polynomial

PARITY_RANK_CAP = 10  # the parity table has 2**rank entries
# (2*bound + 1)**rank above this is refused.  The largest search a demo runs
# at its defaults, pp-search at bound 25 on a rank-3 family, has 51**3 = 132,651.
MAX_CANDIDATES = 1_000_000

_pool = None  # (worker count, executor) of this process's search pool
_pool_lock = threading.Lock()  # searches may run on several threads


def coefficient_values(bound: int):
    """The per-coordinate value order 0, 1, -1, ..., bound, -bound."""
    out = [0]
    for v in range(1, bound + 1):
        out.append(v)
        out.append(-v)
    return out


def thread_count() -> int:
    """AVTK_THREADS, clamped to at least 1 and at most the CPU count."""
    raw = os.environ.get("AVTK_THREADS", "1")
    try:
        wanted = max(1, int(raw))
    except ValueError:
        return 1
    return min(wanted, os.cpu_count() or 1)


def _exit_with_parent():
    """Pool initializer: end this worker once the process that started it is gone.

    A parent that is killed runs no exit hook, and its idle workers would
    otherwise wait on the job queue for ever.
    """
    parent = multiprocessing.parent_process()
    threading.Thread(target=_join_then_exit, args=(parent,), daemon=True).start()


def _join_then_exit(parent):
    parent.join()
    os._exit(1)


def _search_pool(size: int):
    """The process's search pool, started anew only when it has fewer than size workers."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] < size:
            if _pool is not None:
                _pool[1].shutdown()
            _pool = (size, ProcessPoolExecutor(max_workers=size, initializer=_exit_with_parent))
        return _pool[1]


def _drop_pool(pool):
    """Forget a broken pool, so that the next search starts a new one."""
    global _pool
    with _pool_lock:
        if _pool is not None and _pool[1] is pool:
            _pool = None


def run_search(worker, common, rank: int, bound: int):
    """First hit of ``worker`` over all coefficient vectors.

    worker((common, first_values, base_index)) must scan coefficient
    vectors whose first coordinate runs through first_values (positions
    base_index onward in the global value order) and return
    (global_index, payload) of its first hit, or None.  Returns the
    (global_index, payload) with the smallest index, or None.
    """
    values = coefficient_values(bound)
    threads = thread_count()
    if threads <= 1 or rank <= 1 or len(values) < 4:
        return worker((common, values, 0))
    chunk = max(1, -(-len(values) // threads))
    jobs = []
    for start in range(0, len(values), chunk):
        jobs.append((common, values[start : start + chunk], start))
    pool = _search_pool(len(jobs))
    try:
        results = list(pool.map(worker, jobs))
    except BrokenProcessPool:
        _drop_pool(pool)
        raise
    hits = [r for r in results if r is not None]
    if not hits:
        return None
    return min(hits, key=lambda h: h[0])


def _sparse(terms):
    """(coefficient, ((variable, exponent), ...)) with zero exponents dropped."""
    return tuple(
        (coeff, tuple((g, e) for g, e in enumerate(mono) if e)) for coeff, mono in terms
    )


def _evaluate(sparse_terms, c) -> int:
    total = 0
    for coeff, factors in sparse_terms:
        for g, e in factors:
            coeff *= c[g] ** e
        total += coeff
    return total


def _pencil_slab(args):
    (rank, bound, det_p, positive, zero, parities), first_values, base = args
    values = coefficient_values(bound)
    stride = len(values) ** (rank - 1)
    for fi, first in enumerate(first_values):
        for ri, tail in enumerate(iter_product(values, repeat=rank - 1)):
            c = (first,) + tail
            if parities is not None and tuple(v & 1 for v in c) not in parities:
                continue
            d = _evaluate(det_p, c)
            if d != 1 and d != -1:
                continue
            if any(_evaluate(p, c) <= 0 for p in positive):
                continue
            if any(_evaluate(p, c) for p in zero):
                continue
            return ((base + fi) * stride + ri, c)
    return None


def pencil_search(mats, bound: int, positive=(), zero=()):
    """(global_index, c) of the first c with sum(c_i * mats[i]) unimodular.

    positive and zero are polynomials in c as (coefficient, exponents)
    pairs, the form det_polynomial returns: a hit must make every
    ``positive`` one > 0 and every ``zero`` one vanish.  Returns None when
    no vector with coordinates up to ``bound`` qualifies, without
    enumerating when the determinant's coefficients share a factor.
    Otherwise raises PreconditionError when there are more than
    MAX_CANDIDATES vectors to enumerate.
    """
    det_terms = det_polynomial(mats)
    if not det_terms or gcd(*(coeff for coeff, _ in det_terms)) > 1:
        return None
    rank = len(mats)
    if (2 * bound + 1) ** rank > MAX_CANDIDATES:
        raise PreconditionError(
            f"a search of (2*{bound} + 1)^{rank} coefficient vectors exceeds the "
            f"cap of {MAX_CANDIDATES}; lower the bound"
        )
    det_p = _sparse(det_terms)
    parities = None
    if rank <= PARITY_RANK_CAP:
        parities = frozenset(
            e for e in iter_product((0, 1), repeat=rank) if _evaluate(det_p, e) & 1
        )
    common = (rank, bound, det_p, tuple(_sparse(p) for p in positive),
              tuple(_sparse(p) for p in zero), parities)
    return run_search(_pencil_slab, common, rank, bound)
