"""Deterministic slab partitioning for the bounded coefficient searches.

Coefficient vectors are enumerated with each coordinate running through
0, 1, -1, 2, -2, ..., bound, -bound, lexicographically.  The search can be
partitioned over the first coordinate into independent slabs; every slab
scans in increasing global enumeration index, so taking the hit with the
smallest index reproduces the sequential result exactly.  AVTK_THREADS
sets the worker count, capped at the CPU count and at the number of
slabs; unset or 1 means fully sequential.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor


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
    with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
        results = list(pool.map(worker, jobs))
    hits = [r for r in results if r is not None]
    if not hits:
        return None
    return min(hits, key=lambda h: h[0])
