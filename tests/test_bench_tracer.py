"""The benchmark's tracer must still find every function it wraps.

bench/tracer.py patches avtk functions by name.  A renamed or deleted
target would only fail the traced benchmark runs; this test makes it fail
here, on a fresh import of avtk like the benchmark's.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _is_avtk(name):
    return name == "avtk" or name.startswith("avtk.")


def test_tracer_installs_and_uninstalls_on_a_fresh_import(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer")
    saved = {k: m for k, m in sys.modules.items() if _is_avtk(k)}
    try:
        for name in saved:
            del sys.modules[name]
        for modname in sorted({target[1] for target in tracer.TARGETS}):
            importlib.import_module(modname)
        intlinalg = sys.modules["avtk.intlinalg"]
        original = intlinalg.int_kernel
        t = tracer.Tracer()
        t.install()
        try:
            assert intlinalg.int_kernel is not original
            assert intlinalg.int_kernel([[1, 1]]) == [[1, -1]]
        finally:
            t.uninstall()
        assert intlinalg.int_kernel is original
        assert t.summary(1)["intlinalg.int_kernel.cells"] == 2
    finally:
        for name in [k for k in sys.modules if _is_avtk(k)]:
            del sys.modules[name]
        sys.modules.update(saved)
