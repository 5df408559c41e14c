import inspect
import re
from pathlib import Path

import pytest

import avtk.torus
from avtk import demos
from avtk.demos import (
    DEMOS,
    _display_replay,
    _quotient_pipeline,
    ambient_shift,
    demo_list,
    parse_type,
    quotient_display,
    run_demo,
    scaled_curve,
    symmetric_names,
    typed_curve,
)
from avtk.errors import PreconditionError
from avtk.scalars import GeneratorSet
from avtk.torus import PolarisedTorus, standard_torus


def test_demo_list_is_complete():
    assert demo_list() == [
        "ex-4.1",
        "ex-4.2",
        "ex-5.3",
        "lemma-5.4",
        "obstruction-table",
        "remark-3.3",
        "thm-3.2-generic",
    ]


def test_parse_type():
    assert parse_type("1,3") == (1, 3)
    assert parse_type(" 1, 2 ,4 ") == (1, 2, 4)
    assert parse_type((1, 3)) == (1, 3)
    with pytest.raises(PreconditionError):
        parse_type("1,x")


@pytest.mark.parametrize("type_", [[1, 3.7], (True, 3), [1, "3"]])
def test_parse_type_refuses_a_list_item_that_is_not_an_int(type_):
    # 3.7 was truncated to 3 and True read as 1
    with pytest.raises(PreconditionError, match="a type entry must be an int"):
        parse_type(type_)
    with pytest.raises(PreconditionError, match="a type entry must be an int"):
        run_demo("thm-3.2-generic", type_=type_)


def test_run_demo_rejects_unknown_names():
    with pytest.raises(PreconditionError):
        run_demo("nope")


def test_symmetric_names():
    # upper triangle only: each distinct name appears once
    names = symmetric_names(2)
    flat = [x for row in names for x in row]
    assert flat == ["b_11", "b_12", "b_22"]


def test_curve_builders():
    gens = GeneratorSet(("t",))
    assert scaled_curve(gens, "t", 3).polarisation_type() == (3,)
    assert typed_curve(gens, "t", 3).polarisation_type() == (3,)
    assert scaled_curve(gens, "t", 3).periods[0][0] == 3 * gens.scalar("t")
    assert typed_curve(gens, "t", 3).periods[0][0] == gens.scalar("t")


def test_ambient_shift_is_unipotent():
    S = ambient_shift(3)
    assert S[2][0] == 1 and S[0][0] == S[1][1] == S[2][2] == 1


def test_quotient_display_shape():
    gens = GeneratorSet(("tau_E", "tau_F"))
    tauF = gens.scalar("tau_F")
    display = quotient_display(gens, "tau_E", [[tauF]], (1, 3))
    assert len(display.periods) == 2 and len(display.periods[0]) == 4
    assert display.periods[0][2] == gens.one()
    assert display.periods[1][3] == gens.constant(3)
    assert display.polarisation_type() == (1, 3)


def test_display_replay_fails_its_check_on_a_column_off_the_periods():
    # the column is no rational combination of the periods: its labelled
    # check fails, where the PreconditionError of ambient_to_lattice escaped
    gens = GeneratorSet(("tau_E", "tau_F"))
    tauE, tauF = gens.gens()
    dtype = (1, 3)
    E = scaled_curve(gens, "tau_E", 3)
    _, A = _quotient_pipeline(gens, E, [typed_curve(gens, "tau_F", 3)], dtype, {}, {})
    # quotient_display's left block, with tau_E * tau_F added to entry (0, 1)
    display = standard_torus(gens, [[3 * tauE, 3 * tauE + tauE * tauF],
                                    [3 * tauE, tauF + 3 * tauE]], dtype)
    checks = {}
    with pytest.raises(AssertionError, match="display column 1 lies in the lattice"):
        _display_replay(A, display, checks, {})
    assert checks["display column 0 lies in the lattice"] is True
    assert checks["display column 1 lies in the lattice"] is False


def test_display_replay_fails_display_entrywise_on_a_changed_term(monkeypatch):
    # the lattice coordinates are those of the true display, the identity
    # S^-1 @ P_D == P_A @ U is checked against a display with one term changed
    gens = GeneratorSet(("tau_E", "tau_F"))
    tauE, tauF = gens.gens()
    dtype = (1, 3)
    E = scaled_curve(gens, "tau_E", 3)
    _, A = _quotient_pipeline(gens, E, [typed_curve(gens, "tau_F", 3)], dtype, {}, {})
    display = quotient_display(gens, "tau_E", [[tauF]], dtype)
    payload = {}
    _display_replay(A, display, {}, payload)
    periods = [list(r) for r in display.periods]
    periods[1][0] = periods[1][0] + tauE * tauF
    changed = PolarisedTorus(gens, periods, display.gram)
    columns = [list(col) for col in zip(*payload["base_change"])]

    def true_columns(T, vectors):
        return columns

    monkeypatch.setattr(demos, "ambient_to_lattice", true_columns)
    checks = {}
    with pytest.raises(AssertionError, match="display entrywise"):
        _display_replay(A, changed, checks, {})
    assert checks["base change unimodular"] is True
    assert checks["display entrywise"] is False
    assert "display span" not in checks


@pytest.mark.parametrize("name,n", [("ex-4.1", 3), ("ex-4.2", 3), ("thm-3.2-generic", 4)])
def test_each_frame_is_solved_in_one_elimination(monkeypatch, name, n):
    # the kernel point, then the 2n display columns, then ex-4.1's 2n factor
    # vectors: one rat_solve each, where every vector had its own
    widths = []
    rat_solve = avtk.torus.rat_solve
    monkeypatch.setattr(avtk.torus, "rat_solve",
                        lambda A, B: widths.append(len(B[0])) or rat_solve(A, B))
    res = run_demo(name, n=n)
    assert all(res.payload["checks"].values())
    assert widths == {"ex-4.1": [1, 2 * n, 2 * n], "ex-4.2": [1, 2 * n],
                      "thm-3.2-generic": [1]}[name]


def test_quotient_pipeline_fails_its_check_on_a_point_off_the_periods(monkeypatch):
    def off_the_periods(T, vectors):
        return [None] * len(vectors)

    monkeypatch.setattr(demos, "ambient_to_lattice", off_the_periods)
    with pytest.raises(AssertionError, match="kernel point is rational over the lattice"):
        run_demo("ex-4.1")


def test_quotient_demo_checks_all_pass():
    res = run_demo("ex-4.1")
    assert res.bounded is True
    checks = res.payload["checks"]
    assert checks and all(checks.values())
    assert res.payload["quotient_type"] == [1, 3]
    assert res.payload["isom_search"]["found"] is False
    assert set(res.documents) == {"product", "quotient", "quotient-standard", "dual"}


def test_quotient_demo_with_explicit_type():
    res = run_demo("ex-4.1", type_="1,2")
    assert res.payload["quotient_type"] == [1, 2]
    assert all(res.payload["checks"].values())


def test_generic_factor_demo():
    res = run_demo("ex-4.2")
    assert all(res.payload["checks"].values())
    assert res.payload["isom_search"]["found"] is False


def test_generic_pipeline_demo_scales_to_rank_three():
    res = run_demo("thm-3.2-generic", type_="1,2,4")
    assert res.bounded is False
    assert res.payload["product_type"] == [2, 4, 4]
    assert res.payload["quotient_type"] == [1, 2, 4]
    assert all(res.payload["checks"].values())


@pytest.mark.parametrize("name", ["thm-3.2-generic", "ex-4.2"])
def test_quotient_pipeline_demos_at_rank_four(name):
    res = run_demo(name, n=4)
    assert res.payload["quotient_type"] == [1, 3, 3, 3]
    checks = res.payload["checks"]
    assert checks["quotient kernel equals pushed complement"] is True
    assert all(v is True for v in checks.values())


def test_surface_demo_small_bound():
    res = run_demo("ex-5.3", bound=2)
    assert res.bounded is True
    assert all(res.payload["checks"].values())
    assert res.payload["isom_search"]["found"] is True
    assert res.payload["pp_search"]["found"] is False
    assert res.payload["pp_search"]["family_rank"] == 3


def test_family_demo_small_bound():
    res = run_demo("lemma-5.4", bound=2)
    assert all(res.payload["checks"].values())
    assert len(res.payload["family"]) == 3
    assert "3*k*m - h*h = 1" in res.payload["obstruction"]["certificate"]


def test_elliptic_demo():
    res = run_demo("remark-3.3")
    assert res.bounded is False
    assert all(res.payload["checks"].values())
    assert res.payload["reduced"] == "(0+1*sqrt(-2))/1"


def test_obstruction_table_demo():
    res = run_demo("obstruction-table", max_d=12)
    rows = {row["d"]: row["obstruction"] for row in res.payload["table"]}
    assert rows[3] is True and rows[5] is False and rows[10] is False
    assert all(res.payload["checks"].values())


def test_demo_type_validation():
    with pytest.raises(PreconditionError):
        run_demo("ex-4.1", type_="2,3")  # must start at 1
    with pytest.raises(PreconditionError):
        run_demo("ex-4.1", type_="1,2,3")  # 2 does not divide 3
    with pytest.raises(PreconditionError):
        run_demo("thm-3.2-generic", type_="1,1")  # trivial quotient order


@pytest.mark.parametrize("name", ["ex-4.1", "ex-4.2", "ex-5.3", "lemma-5.4"])
@pytest.mark.parametrize("bound", [2.7, True, "3"])
def test_run_demo_passes_the_bound_to_the_search_check_unchanged(name, bound):
    # a library caller's 2.7, True or "3" is refused, not searched as 2, 1 or 3
    with pytest.raises(PreconditionError, match="search bound must be an int"):
        run_demo(name, bound=bound)


@pytest.mark.parametrize("name", ["ex-4.1", "ex-4.2", "thm-3.2-generic"])
@pytest.mark.parametrize("n", [2.7, True, "3"])
def test_run_demo_refuses_a_dimension_that_is_not_an_int(name, n):
    # 2.7 was truncated to n = 2, which built type [1, 3]
    with pytest.raises(PreconditionError, match="--n must be an int"):
        run_demo(name, n=n)


@pytest.mark.parametrize("max_d", [12.9, True, "12"])
def test_run_demo_refuses_a_table_bound_that_is_not_an_int(max_d):
    # 12.9 was truncated, so the table stopped at d = 12
    with pytest.raises(PreconditionError, match="--max-d must be an int"):
        run_demo("obstruction-table", max_d=max_d)


def test_the_readme_lists_the_options_each_demo_takes():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `--([a-z-]+)` \| (.*?) \|", readme, re.M)
    listed = {flag: set(re.findall(r"`([\w.-]+)`", names)) for flag, names in rows}
    takes = {flag: {name for name, demo in DEMOS.items()
                    if param in inspect.signature(demo).parameters}
             for flag, param in (("n", "n"), ("type", "type_"), ("bound", "bound"),
                                 ("max-d", "max_d"))}
    assert listed == takes
