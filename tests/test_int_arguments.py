"""Every integer argument of the library is checked by errors.check_int.

A bool, a float or a string passed where an int is expected raises
PreconditionError with a message that names the argument, before any
work; none is truncated, read as 0 or 1, or carried into an exact object.
"""

import re

import pytest

from avtk import demos
from avtk.demos import run_demo, surface_pair
from avtk.elliptic import QuadNumber, formal_quotient_isomorphic, quotient_isomorphic
from avtk.errors import PreconditionError, check_int
from avtk.homs import isom_search
from avtk.parallel import Pencil
from avtk.ppsearch import obstruction_report, pp_search
from avtk.scalars import GeneratorSet
from avtk.torus import product

S, SD = surface_pair(GeneratorSet(("a", "b", "c")), 3)
A, AHAT = product([S, SD]), product([SD, S])
TAU = QuadNumber.parse("sqrt(-2)")

# (label, the name the message gives the argument, call with the bad value)
ENTRY_POINTS = [
    ("Pencil.search", "search bound", lambda x: Pencil([[[1]]]).search(x)),
    ("pp_search", "search bound", lambda x: pp_search(A, AHAT, x)),
    ("isom_search", "search bound", lambda x: isom_search(A, AHAT, x)),
    ("run_demo n", "--n", lambda x: run_demo("ex-4.1", n=x)),
    ("run_demo bound", "search bound", lambda x: run_demo("ex-4.2", bound=x)),
    ("run_demo max_d", "--max-d", lambda x: run_demo("obstruction-table", max_d=x)),
    ("run_demo type entry", "a type entry", lambda x: run_demo("thm-3.2-generic", type_=(1, x))),
    ("obstruction_report", "modulus", obstruction_report),
    ("quotient_isomorphic", "torsion order", lambda x: quotient_isomorphic(TAU, x)),
    ("divided_by", "divisor", TAU.divided_by),
    ("formal_quotient_isomorphic", "order", lambda x: formal_quotient_isomorphic("tau", x)),
    ("QuadNumber p", "QuadNumber p", lambda x: QuadNumber(x, 1, 1, -2)),
    ("QuadNumber q", "QuadNumber q", lambda x: QuadNumber(0, x, 1, -2)),
    ("QuadNumber r", "QuadNumber r", lambda x: QuadNumber(0, 1, x, -2)),
    ("QuadNumber disc", "QuadNumber disc", lambda x: QuadNumber(0, 1, 1, x)),
    ("mobius a", "moebius a", lambda x: TAU.mobius(x, 0, 0, 1)),
    ("mobius b", "moebius b", lambda x: TAU.mobius(1, x, 0, 1)),
    ("mobius c", "moebius c", lambda x: TAU.mobius(1, 0, x, 1)),
    ("mobius d", "moebius d", lambda x: TAU.mobius(1, 0, 0, x)),
    ("FormalScalar power", "exponent", lambda x: GeneratorSet(("t",)).scalar("t") ** x),
]


@pytest.mark.parametrize("bad", [True, 2.5, "3"], ids=repr)
@pytest.mark.parametrize("what, call", [e[1:] for e in ENTRY_POINTS],
                         ids=[e[0] for e in ENTRY_POINTS])
def test_an_integer_argument_that_is_not_an_int_is_refused_by_name(what, call, bad):
    # among these, obstruction_report(2.5), quotient_isomorphic(tau, 2.5),
    # divided_by(2.5) and QuadNumber(2.5, 1, 1, -2) raised TypeError,
    # quotient_isomorphic(tau, True) returned True, and QuadNumber(0, 1, 1, -2.0)
    # printed "(0+1*sqrt(-2.0))/1"; t ** True returned t
    message = f"{what} must be an int, not {type(bad).__name__}"
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        call(bad)


@pytest.mark.parametrize("value, least, message", [
    (0, 1, "x must be at least 1"), (-5, None, None), (1, 2, "x must be at least 2"),
    (7, 7, None), (None, 0, "x must be an int, not NoneType"),
])
def test_check_int(value, least, message):
    if message is None:
        check_int("x", value, least)
    else:
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            check_int("x", value, least)


def test_a_demo_bound_is_refused_before_the_demo_builds_anything(monkeypatch):
    # run_demo left the bound to the search, after the product was built
    def no_work(*args, **kwargs):
        raise AssertionError("the demo built its product")

    monkeypatch.setattr(demos, "product", no_work)
    with pytest.raises(PreconditionError, match="^search bound must be at least 1$"):
        run_demo("ex-4.1", n=4, bound=0)


@pytest.mark.parametrize("name, option", [
    ("ex-5.3", {"n": 3}), ("remark-3.3", {"bound": 5}),
    ("obstruction-table", {"n": 3}), ("lemma-5.4", {"type_": "1,3"}),
    ("thm-3.2-generic", {"bound": 2}), ("ex-4.1", {"max_d": 5}),
])
def test_an_option_the_demo_does_not_take_is_refused(name, option):
    # each was ignored, and the demo ran at its defaults
    flag = "--" + next(iter(option)).rstrip("_").replace("_", "-")
    with pytest.raises(PreconditionError, match=f"^demo {name} takes no {flag} option$"):
        run_demo(name, **option)
