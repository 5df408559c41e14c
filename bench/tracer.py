"""Spans around the public entry points of each avtk layer, from outside.

A Tracer patches the functions and methods named in TARGETS for the
duration of a traced pass and restores them afterwards, so untraced
passes run the library untouched.  avtk binds its helpers with
``from .intlinalg import det`` and the like, so a function is replaced
under every name any loaded avtk module holds it by, not only in the
module that defines it.

Each call records a span (name, start, end, parent) in flat arrays; the
spans stay in memory until the run ends.  Spans are recorded only in the
process that installed the tracer: search slabs running in pool workers
are invisible to it.
"""

from __future__ import annotations

import gzip
import os
import sys
from array import array
from time import perf_counter


def _tested(result) -> int:
    return getattr(result, "tested", 0)


# (span name, defining module, function or Class.method, counter suffix or None,
#  amount that one call adds to the counter)
TARGETS = [
    ("scalars.arith", "avtk.scalars", "FormalScalar.__add__", None, None),
    ("scalars.arith", "avtk.scalars", "FormalScalar.__radd__", None, None),
    ("scalars.arith", "avtk.scalars", "FormalScalar.__sub__", None, None),
    ("scalars.arith", "avtk.scalars", "FormalScalar.__rsub__", None, None),
    ("scalars.arith", "avtk.scalars", "FormalScalar.__mul__", None, None),
    ("scalars.arith", "avtk.scalars", "FormalScalar.__rmul__", None, None),
    ("scalars.parse_scalar", "avtk.scalars", "parse_scalar", None, None),
    ("scalars.monomial_flatten", "avtk.scalars", "monomial_flatten", None, None),
    ("intlinalg.det", "avtk.intlinalg", "det", None, None),
    ("intlinalg.det_mod2", "avtk.intlinalg", "det_mod2", None, None),
    ("intlinalg.int_kernel", "avtk.intlinalg", "int_kernel", "cells",
     lambda args, result: len(args[0]) * len(args[0][0]) if args[0] else 0),
    ("intlinalg.hnf", "avtk.intlinalg", "hnf", None, None),
    ("intlinalg.snf", "avtk.intlinalg", "snf", None, None),
    ("intlinalg.rat_inv", "avtk.intlinalg", "rat_inv", None, None),
    ("intlinalg.rat_solve", "avtk.intlinalg", "rat_solve", None, None),
    ("intlinalg.flatten_to_int", "avtk.intlinalg", "flatten_to_int", None, None),
    ("torus.kernel_elements", "avtk.torus", "PolarisedTorus.kernel_elements", "points",
     lambda args, result: len(result)),
    ("torus.subgroup_elements", "avtk.torus", "subgroup_elements", "points",
     lambda args, result: len(result)),
    ("torus.push_point", "avtk.torus", "QuotientResult.push_point", None, None),
    ("torus.quotient", "avtk.torus", "PolarisedTorus.quotient", None, None),
    ("torus.symplectic_complement", "avtk.torus", "PolarisedTorus.symplectic_complement",
     None, None),
    ("torus.dual", "avtk.torus", "PolarisedTorus.dual", None, None),
    ("homs.hom_module", "avtk.homs", "hom_module", "rank", lambda args, result: len(result)),
    ("homs.isom_search", "avtk.homs", "isom_search", "candidates",
     lambda args, result: _tested(result)),
    ("ppsearch.admissible_family", "avtk.ppsearch", "admissible_family", "rank",
     lambda args, result: result.rank),
    ("ppsearch.pp_search", "avtk.ppsearch", "pp_search", "candidates",
     lambda args, result: _tested(result)),
    ("parallel.run_search", "avtk.parallel", "run_search", None, None),
    ("documents.torus_from_doc", "avtk.documents", "torus_from_doc", None, None),
    ("documents.torus_to_doc", "avtk.documents", "torus_to_doc", None, None),
    ("documents.canonical_json", "avtk.documents", "canonical_json", None, None),
    ("cli.main", "avtk.cli", "main", None, None),
    ("elliptic", "avtk.elliptic", "QuadNumber.parse", None, None),
    ("elliptic", "avtk.elliptic", "reduce_tau", None, None),
    ("elliptic", "avtk.elliptic", "quotient_isomorphic", None, None),
    ("elliptic", "avtk.elliptic", "formal_quotient_isomorphic", None, None),
    ("demos.run_demo", "avtk.demos", "run_demo", None, None),
]

SEARCHES = ("homs.isom_search", "ppsearch.pp_search")


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name, fn, counter, amount):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self.name_ids[name]
        key = f"{name}.{counter}"
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.span_name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
            if amount is not None:
                tracer.counts[key] = tracer.counts.get(key, 0) + amount(args, result)
            return result

        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "avtk" or k.startswith("avtk.")]
        for name, modname, path, counter, amount in TARGETS:
            owner = sys.modules[modname]
            if "." in path:  # a method: patch the class attribute
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    patched = classmethod(self._wrap(name, original.__func__, counter, amount))
                else:
                    patched = self._wrap(name, original, counter, amount)
                setattr(cls, attr, patched)
                self._restore.append((cls, attr, original))
                continue
            original = getattr(owner, path)
            patched = self._wrap(name, original, counter, amount)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, patched)
                        self._restore.append((mod, attr, original))

    def uninstall(self):
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    def summary(self, passes: int) -> dict:
        """Per-pass totals: for each span name its outermost calls and
        their time (nested calls of the same name are not counted twice),
        self time, and the counters; plus det calls made under each search."""
        n = len(self.start)
        child_time = [0.0] * n
        search_of = [-1] * n  # nearest enclosing search span name id
        search_ids = {self.name_ids[s] for s in SEARCHES if s in self.name_ids}
        out: dict[str, float] = {}
        for i in range(n):
            p = self.parent[i]
            dur = self.end[i] - self.start[i]
            if p >= 0:
                child_time[p] += dur
                search_of[i] = search_of[p]
            if self.span_name[i] in search_ids:
                search_of[i] = self.span_name[i]
        det_id = self.name_ids.get("intlinalg.det")
        for i in range(n):
            name = self.names[self.span_name[i]]
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            _add(out, f"{name}.self_s", dur - child_time[i])
            if p < 0 or self.span_name[p] != self.span_name[i]:
                _add(out, f"{name}.calls", 1)
                _add(out, f"{name}.s", dur)
            if self.span_name[i] == det_id and search_of[i] >= 0:
                _add(out, f"{self.names[search_of[i]]}.dets", 1)
        for key, value in self.counts.items():
            _add(out, key, value)
        for search in SEARCHES:
            cands = out.get(f"{search}.candidates", 0)
            secs = out.get(f"{search}.s", 0.0)
            out[f"{search}.candidates_per_s"] = cands / secs if secs else 0.0
            out[f"{search}.det_per_candidate"] = (
                out.get(f"{search}.dets", 0) / cands if cands else 0.0)
        return {k: (v / passes if not k.endswith(("_per_s", "_per_candidate")) else v)
                for k, v in out.items()}

    def write(self, path):
        """Every span as tab-separated id, parent, name, start, end (s)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.span_name[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")


def _add(out, key, value):
    out[key] = out.get(key, 0) + value
