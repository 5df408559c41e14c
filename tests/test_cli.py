import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from avtk import cli
from avtk.demos import demo_list, surface_pair
from avtk.documents import (Report, canonical_json, digest, point_to_doc, torus_from_doc,
                            torus_to_doc)
from avtk.intlinalg import snf
from avtk.parallel import MAX_CANDIDATES
from avtk.ppsearch import MAX_MODULUS
from avtk.scalars import GeneratorSet
from avtk.torus import PolarisedTorus, TorsionPoint, product, standard_gram

G = GeneratorSet(("tau",))
TAU = G.scalar("tau")
G2 = GeneratorSet(("tau_E", "tau_F"))


def write_doc(path, doc):
    path.write_text(canonical_json(doc))
    return str(path)


@pytest.fixture
def curve_doc(tmp_path):
    T = PolarisedTorus(G, [[TAU, 3]], standard_gram([3]))
    return write_doc(tmp_path / "curve.json", torus_to_doc(T))


@pytest.fixture
def square_doc(tmp_path):
    E = PolarisedTorus(G, [[TAU, 1]], standard_gram([1]))
    return write_doc(tmp_path / "square.json", torus_to_doc(product([E, E])))


def run_cli(argv):
    return cli.main(argv)


# -- exit codes --------------------------------------------------------------

def test_type_exits_zero(curve_doc, capsys):
    assert run_cli(["type", curve_doc]) == 0
    out = capsys.readouterr().out
    assert "type: [3]" in out and "verdict: pass" in out


def test_missing_file_exits_one(capsys):
    assert run_cli(["type", "/no/such/file.json"]) == 1
    assert "avtk:" in capsys.readouterr().err


def test_bad_json_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    assert run_cli(["type", str(path)]) == 1
    assert "parse error" in capsys.readouterr().err


def _curve_doc(**changes):
    doc = torus_to_doc(PolarisedTorus(G, [[TAU, 3]], standard_gram([3])))
    doc.update(changes)
    return doc


# (argv, contents of BAD): one malformed document each; SQUARE is a valid
# torus document.  test_documents runs them again after a valid twin
MALFORMED_INPUTS = [
    pytest.param(["type", "BAD"], canonical_json(_curve_doc(gram=[[0, 1.5], [-1.5, 0]])),
                 id="gram-float"),
    pytest.param(["type", "BAD"], canonical_json(_curve_doc(gram=[[0, True], [-1, 0]])),
                 id="gram-bool"),
    pytest.param(["type", "BAD"], canonical_json(_curve_doc(gram=[[0, "3"], [-3, 0]])),
                 id="gram-string"),
    pytest.param(["type", "BAD"], canonical_json(_curve_doc(periods=5)), id="periods-int"),
    pytest.param(["type", "BAD"], canonical_json(_curve_doc(periods=[5])),
                 id="periods-row-int"),
    pytest.param(["type", "BAD"], canonical_json(_curve_doc(assumptions=7)),
                 id="assumptions-int"),
    pytest.param(["type", "BAD"], b"\xff\xfe not utf-8", id="not-utf8"),
    # a directory where a document is expected
    pytest.param(["type", "BAD"], None, id="directory"),
    pytest.param(["sub", "SQUARE", "BAD"],
                 canonical_json({"columns": [[1, 0], [0, 0], [0, 1.5], [0, 0]]}),
                 id="embedding-float"),
    # rows of no columns: a subtorus of dimension 0 crashed restricted_polarisation
    pytest.param(["sub", "SQUARE", "BAD"], canonical_json({"columns": [[], [], [], []]}),
                 id="embedding-no-columns"),
    pytest.param(["type", "BAD"], canonical_json(_curve_doc(dim=True)), id="dim-bool"),
    pytest.param(["degree", "BAD"], "5", id="degree-int"),
    pytest.param(["quotient", "SQUARE", "BAD"], canonical_json({"coords": 5}),
                 id="point-coords-int"),
    # a string of generators used to be read as one-letter names t, a, u
    pytest.param(["type", "BAD"],
                 canonical_json({"generators": "tau", "dim": 1, "periods": [["t*a", "1"]],
                                 "gram": [[0, 1], [-1, 0]]}),
                 id="generators-str"),
    # "²" reached int() and raised ValueError; "٣" was read as 3 and written back "3"
    pytest.param(["type", "BAD"], canonical_json(_curve_doc(periods=[["tau", "\u00b2"]])),
                 id="period-superscript-digit"),
    pytest.param(["type", "BAD"], canonical_json(_curve_doc(periods=[["tau", "\u0663"]])),
                 id="period-arabic-indic-digit"),
]


@pytest.mark.parametrize("argv,contents", MALFORMED_INPUTS)
def test_malformed_input_exits_one_without_traceback(argv, contents, square_doc, tmp_path,
                                                      capsys):
    path = tmp_path / "bad.json"
    if contents is None:
        path.mkdir()
    elif isinstance(contents, bytes):
        path.write_bytes(contents)
    else:
        path.write_text(contents)
    argv = [{"BAD": str(path), "SQUARE": square_doc}.get(a, a) for a in argv]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("avtk: ") and err.count("\n") == 1


_NESTED = "expression nested deeper than 100 levels (at offset 100)"


@pytest.mark.parametrize(
    "contents,message",
    [
        pytest.param(canonical_json(_curve_doc(periods=[["(" * 3000 + "tau" + ")" * 3000, "1"]])),
                     _NESTED, id="parentheses"),
        pytest.param(canonical_json(_curve_doc(periods=[["-" * 3000 + "tau", "1"]])),
                     _NESTED, id="signs"),
        pytest.param("[" * 200_000 + "]" * 200_000, "document is nested too deeply", id="json"),
    ],
)
def test_deeply_nested_input_exits_one_with_one_line(contents, message, tmp_path, capsys):
    # each ran out of stack and printed a RecursionError traceback
    path = tmp_path / "deep.json"
    path.write_text(contents)
    assert run_cli(["type", str(path)]) == 1
    assert capsys.readouterr().err == f"avtk: parse error: {message}\n"


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        run_cli(["no-such-command"])
    assert exc.value.code == 1


def test_precondition_exits_two(tmp_path, capsys):
    T = PolarisedTorus(G, [[TAU, TAU + 1]], standard_gram([1]))
    doc = write_doc(tmp_path / "skew.json", torus_to_doc(T))
    assert run_cli(["dual", doc]) == 2
    assert "precondition" in capsys.readouterr().err


@pytest.mark.parametrize("periods", [
    [["1", "t"]],                                # right block not constant
    [["t", "0", "1", "1"], ["0", "t", "1", "1"]],  # constant, singular over Q
])
def test_hom_refuses_a_source_without_an_invertible_constant_right_block(
        tmp_path, capsys, periods):
    n = len(periods)
    x = write_doc(tmp_path / "x.json", {"generators": ["t"], "dim": n, "periods": periods,
                                        "gram": standard_gram([1] * n)})
    assert run_cli(["hom", x, x]) == 2
    err = capsys.readouterr().err
    assert "right period block" in err and err.count("\n") == 1


def test_bounded_searches_exit_three(tmp_path, capsys):
    E = PolarisedTorus(G, [[TAU, 1]], standard_gram([1]))
    E2 = PolarisedTorus(G, [[TAU, 2]], standard_gram([2]))
    a = write_doc(tmp_path / "a.json", torus_to_doc(E))
    b = write_doc(tmp_path / "b.json", torus_to_doc(E2))
    assert run_cli(["isom-search", a, b, "--bound", "2"]) == 3
    assert "verdict: bounded" in capsys.readouterr().out


def test_no_homs_exits_four(tmp_path, capsys):
    E = PolarisedTorus(G2, [[G2.scalar("tau_E"), 1]], standard_gram([1]))
    F = PolarisedTorus(G2, [[G2.scalar("tau_F"), 1]], standard_gram([1]))
    a = write_doc(tmp_path / "e.json", torus_to_doc(E))
    b = write_doc(tmp_path / "f.json", torus_to_doc(F))
    assert run_cli(["isom-search", a, b]) == 4
    assert "no homomorphisms" in capsys.readouterr().out


def test_failed_demo_assertion_exits_five(monkeypatch, capsys):
    def broken(name, **kwargs):
        raise AssertionError("deliberately broken")

    monkeypatch.setattr(cli, "run_demo", broken)
    assert run_cli(["demo", "remark-3.3"]) == 5
    assert "assertion failed" in capsys.readouterr().err


def test_unknown_demo_exits_one(capsys):
    assert run_cli(["demo", "ex-9.9"]) == 1
    assert "unknown demo" in capsys.readouterr().err


# -- operations through the CLI --------------------------------------------------

def test_kernel_reports_generators(curve_doc, capsys):
    assert run_cli(["kernel", curve_doc]) == 0
    out = capsys.readouterr().out
    assert "order: 9" in out


def test_kernel_takes_one_smith_form_of_the_gram(tmp_path, monkeypatch, capsys):
    # the type and the generators read the one Smith form the torus keeps
    monkeypatch.chdir(tmp_path)
    run_cli(["demo", "ex-4.2", "--n", "3", "--out", "ex42"])
    capsys.readouterr()
    calls = []

    def counted(M):
        calls.append(M)
        return snf(M)

    for name, expected in (("product", [3, 3, 3]), ("dual", [1, 1, 3])):
        doc = f"ex42/{name}.json"
        with monkeypatch.context() as spies:
            spies.setattr("avtk.intlinalg.snf", counted)
            spies.setattr("avtk.torus.snf", counted)
            assert run_cli(["kernel", doc, "--json"]) == 0
        assert len(calls) == 1
        calls.clear()
        payload = json.loads(capsys.readouterr().out)["payload"]
        dtype = torus_from_doc(json.loads(Path(doc).read_text())).polarisation_type()
        assert payload["type"] == list(dtype) == expected
        assert payload["order"] == prod(d * d for d in dtype)
        assert sorted(g["order"] for g in payload["generators"]) == 2 * [d for d in dtype if d > 1]


def test_kernel_type_and_complement_take_one_smith_form_of_the_gram(tmp_path, monkeypatch,
                                                                     capsys):
    # the three commands load one kept torus, which keeps its gram's Smith form
    monkeypatch.chdir(tmp_path)
    run_cli(["demo", "ex-4.2", "--n", "3", "--out", "ex42"])
    capsys.readouterr()
    for name, dtype in (("product", [3, 3, 3]), ("dual", [1, 1, 3])):
        doc = f"ex42/{name}.json"
        gram = json.loads(Path(doc).read_text())["gram"]
        calls = []

        def counted(M):
            calls.append(M)
            return snf(M)

        with monkeypatch.context() as spies:
            spies.setattr("avtk.intlinalg.snf", counted)
            spies.setattr("avtk.torus.snf", counted)
            assert run_cli(["kernel", doc, "--json"]) == 0
            generators = json.loads(capsys.readouterr().out)["payload"]["generators"]
            points = [write_doc(tmp_path / f"{name}-{j}.json", {"coords": g["coords"]})
                      for j, g in enumerate(generators[:2])]
            assert run_cli(["type", doc, "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["payload"]["type"] == dtype
            assert run_cli(["complement", doc, *points, "--json"]) == 0
            capsys.readouterr()
        assert [M for M in calls if M == gram] == [gram]


def test_quotient_through_cli(tmp_path, capsys):
    T = PolarisedTorus(G, [[TAU, 2]], standard_gram([2]))
    tdoc = write_doc(tmp_path / "t.json", torus_to_doc(T))
    pdoc = write_doc(tmp_path / "p.json",
                     point_to_doc(TorsionPoint([Fraction(0), Fraction(1, 2)])))
    assert run_cli(["quotient", tdoc, pdoc]) == 0
    assert "type: [1]" in capsys.readouterr().out


def test_quotient_outside_kernel_exits_two(tmp_path, capsys):
    T = PolarisedTorus(G, [[TAU, 2]], standard_gram([2]))
    tdoc = write_doc(tmp_path / "t.json", torus_to_doc(T))
    pdoc = write_doc(tmp_path / "p.json",
                     point_to_doc(TorsionPoint([Fraction(0), Fraction(1, 3)])))
    assert run_cli(["quotient", tdoc, pdoc]) == 2


def test_quotient_by_an_ambient_point_off_the_periods_exits_two(tmp_path, capsys):
    # the periods t and 2t span Q*t, so the constant 1/2 has no lattice coordinates
    tdoc = write_doc(tmp_path / "t.json", {"generators": ["t"], "dim": 1,
                                           "periods": [["t", "2*t"]],
                                           "gram": [[0, 2], [-2, 0]]})
    pdoc = write_doc(tmp_path / "p.json", {"coords": ["1/2"], "basis": "ambient"})
    assert run_cli(["quotient", tdoc, pdoc]) == 2
    assert "vector is not a rational combination of the periods" in capsys.readouterr().err


def test_pp_search_refuses_periods_dependent_over_q(tmp_path, capsys):
    # the columns 2 and 1 are dependent over Q: admissible_family refuses the
    # target, as an int_kernel vector has an all-zero H part
    doc = write_doc(tmp_path / "d.json", {"generators": ["t"], "dim": 1,
                                          "periods": [["2", "1"]]})
    assert run_cli(["pp-search", doc]) == 2
    assert "linearly dependent" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["hom", "isom-search"])
def test_hom_commands_refuse_a_codomain_dependent_over_q(tmp_path, capsys, command):
    # Hom(T, T) had rank 3 with a generator whose analytic rep is 0, and
    # isom-search reported an isomorphism
    doc = write_doc(tmp_path / "d.json", {"generators": ["t"], "dim": 1,
                                          "periods": [["2", "1"]]})
    assert run_cli([command, doc, doc]) == 2
    assert "linearly dependent" in capsys.readouterr().err


def test_dual_json_report(curve_doc, capsys):
    assert run_cli(["dual", curve_doc, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "pass"
    assert data["payload"]["type"] == [3]
    assert data["payload"]["scalings"] == [3]
    assert "timing_seconds" in data


def test_dual_keeps_declared_assumptions(tmp_path, capsys):
    doc = write_doc(tmp_path / "curve.json", _curve_doc(assumptions="Im(Z) > 0"))
    assert run_cli(["dual", doc, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["payload"]["torus"]["assumptions"] == "Im(Z) > 0"


def test_hom_and_degree(square_doc, tmp_path, capsys):
    assert run_cli(["hom", square_doc, square_doc]) == 0
    assert "rank: 4" in capsys.readouterr().out
    mpath = tmp_path / "m.json"
    mpath.write_text("[[2, 0], [0, 3]]")
    assert run_cli(["degree", str(mpath)]) == 0
    assert "degree: 6" in capsys.readouterr().out


def test_pp_search_defaults_to_computed_dual(square_doc, capsys):
    assert run_cli(["pp-search", square_doc, "--bound", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["payload"]["found"] is True
    assert data["payload"]["witness"] == [[1, 0], [0, 1]]


def test_searches_over_the_candidate_cap_exit_two(curve_doc, square_doc, capsys):
    # End of the curve has rank 1, so a search has 2*bound + 1 candidates
    largest = (MAX_CANDIDATES - 1) // 2
    assert run_cli(["isom-search", curve_doc, curve_doc, "--bound", str(largest)]) == 0
    capsys.readouterr()
    assert run_cli(["isom-search", curve_doc, curve_doc, "--bound", str(largest + 1)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("avtk: precondition violated: ") and err.count("\n") == 1
    # the family of E x E has rank 3: 101**3 candidates at bound 50
    assert 101 ** 3 > MAX_CANDIDATES
    assert run_cli(["pp-search", square_doc, "--bound", "50"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("avtk: precondition violated: ") and err.count("\n") == 1


def test_a_proven_negative_is_not_held_to_the_candidate_cap(capsys):
    # Hom rank 5: 21**5 candidates, ruled out by the determinant's content
    assert 21 ** 5 > MAX_CANDIDATES
    assert run_cli(["demo", "ex-4.1", "--n", "3", "--bound", "10", "--json"]) == 3
    search = json.loads(capsys.readouterr().out)["payload"]["isom_search"]
    assert search == {"bound": 10, "found": False, "tested": 21 ** 5}


def test_a_certified_negative_is_not_held_to_the_candidate_cap(tmp_path, capsys):
    # S x S^ at d = 3: 101**3 candidates at bound 50, ruled out by the norm
    # certificate (minor 3 = q * minor 1 / 3, det H = q**2, and q = 3*c0*c2 - c1**2
    # = 1 has no root mod 3)
    S, Sd = surface_pair(GeneratorSet(("a", "b", "c")), 3)
    a = write_doc(tmp_path / "product.json", torus_to_doc(product([S, Sd])))
    b = write_doc(tmp_path / "product-dual.json", torus_to_doc(product([Sd, S])))
    assert 101 ** 3 > MAX_CANDIDATES
    assert run_cli(["pp-search", a, b, "--bound", "50", "--json"]) == 3
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload == {"bound": 50, "family_rank": 3, "found": False, "tested": 101 ** 3}


def test_elliptic_subcommand(capsys):
    assert run_cli(["elliptic", "sqrt(-2)", "2"]) == 0
    assert "isomorphic: True" in capsys.readouterr().out
    assert run_cli(["elliptic", "sqrt(-1)", "2"]) == 0
    assert "isomorphic: False" in capsys.readouterr().out
    assert run_cli(["elliptic", "bogus", "2"]) == 1
    capsys.readouterr()
    assert run_cli(["elliptic", "sqrt(-1)/0", "2"]) == 1
    assert capsys.readouterr().err == "avtk: parse error: zero denominator (at offset 0)\n"


def test_elliptic_formal_certificate(capsys):
    assert run_cli(["elliptic", "--formal", "tau", "5"]) == 0
    out = capsys.readouterr().out
    assert "isomorphic: False" in out and "tau/5" in out


@pytest.mark.parametrize("name", ["1/2", "", "a b"])
def test_elliptic_formal_refuses_a_period_that_is_not_a_name(name, capsys):
    # "1/2" is rational, so a certificate that it satisfies no polynomial
    # relation would be false
    assert run_cli(["elliptic", "--formal", name, "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("avtk: parse error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("name", ["tau", "sigma"])
def test_elliptic_formal_accepts_a_generator_name(name, capsys):
    assert run_cli(["elliptic", "--formal", name, "2"]) == 0
    assert f"{name}/2" in capsys.readouterr().out


def test_obstruction_subcommand(capsys):
    assert run_cli(["obstruction", "3"]) == 0
    assert "obstruction: True" in capsys.readouterr().out


def test_obstruction_rejects_a_modulus_above_the_cap(capsys):
    assert run_cli(["obstruction", str(MAX_MODULUS)]) == 0
    capsys.readouterr()
    assert run_cli(["obstruction", str(MAX_MODULUS + 1)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("avtk: precondition violated: ") and err.count("\n") == 1
    assert run_cli(["demo", "obstruction-table", "--max-d", str(MAX_MODULUS + 1)]) == 2


def test_elliptic_rejects_a_discriminant_above_the_cap(capsys):
    # one trial-division squarefree test at this size took seconds
    assert run_cli(["elliptic", "(1+sqrt(-100000000000031))/2", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("avtk: parse error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_report_out_file(curve_doc, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli(["type", curve_doc, "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["payload"]["type"] == [3]


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("case", ["query-directory", "query-missing-parent", "demo-directory"])
def test_an_out_that_cannot_be_written_exits_one_with_one_line_and_no_report(
        case, json_flag, curve_doc, tmp_path, capsys):
    # each raised IsADirectoryError or FileNotFoundError after printing the report
    if case == "query-directory":
        out = tmp_path / "dir"
        out.mkdir()
        argv, errno = ["type", curve_doc, "--out", str(out)], "[Errno 21] Is a directory"
    elif case == "query-missing-parent":
        out = tmp_path / "missing" / "x.json"
        argv, errno = ["type", curve_doc, "--out", str(out)], "[Errno 2] No such file or directory"
    else:
        out = tmp_path / "docs" / "report.json"
        out.mkdir(parents=True)
        argv = ["demo", "thm-3.2-generic", "--out", str(out.parent)]
        errno = "[Errno 21] Is a directory"
    assert run_cli(argv + json_flag) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"avtk: {errno}: {str(out)!r}\n"


@pytest.mark.parametrize("demo", [False, True])
def test_json_and_out_write_one_serialisation_to_both(demo, curve_doc, tmp_path, monkeypatch,
                                                      capsys):
    calls = []
    to_json = Report.to_json
    monkeypatch.setattr(Report, "to_json", lambda self, *a: calls.append(1) or to_json(self, *a))
    out = tmp_path / "out"
    argv = (["demo", "thm-3.2-generic", "--out", str(out), "--json"] if demo
            else ["type", curve_doc, "--out", str(out), "--json"])
    assert run_cli(argv) == 0
    written = (out / "report.json" if demo else out).read_text(encoding="utf-8")
    assert capsys.readouterr().out == written
    assert len(calls) == 1


# -- demos through the CLI ----------------------------------------------------------

def test_demo_list(capsys):
    assert run_cli(["demo", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ["ex-4.1", "ex-4.2", "ex-5.3", "lemma-5.4", "remark-3.3",
                 "thm-3.2-generic", "obstruction-table"]:
        assert name in out


@pytest.mark.parametrize("argv", [["--list"], ["thm-3.2-generic"]])
def test_demo_out_makes_a_missing_directory(argv, tmp_path, capsys):
    # --list exited 1 with "[Errno 2] ... 'D/report.json'" where a named demo made D
    out = tmp_path / "missing" / "D"
    assert run_cli(["demo", *argv, "--out", str(out), "--json"]) == 0
    assert capsys.readouterr().out == (out / "report.json").read_text(encoding="utf-8")


def test_an_unknown_demo_makes_no_out_directory(tmp_path, capsys):
    out = tmp_path / "D"
    assert run_cli(["demo", "ex-9.9", "--out", str(out)]) == 1
    assert "unknown demo" in capsys.readouterr().err
    assert not out.exists()


def test_demo_writes_documents_and_report(tmp_path, capsys):
    outdir = tmp_path / "docs"
    assert run_cli(["demo", "ex-4.1", "--out", str(outdir), "--json"]) == 3
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "pass"  # bounded outcome is the expected one
    for name in ["product", "quotient", "quotient-standard", "dual", "report"]:
        assert (outdir / f"{name}.json").exists()


def test_demo_documents_round_trip(tmp_path, capsys):
    outdir = tmp_path / "docs"
    run_cli(["demo", "ex-4.1", "--out", str(outdir), "--json"])
    capsys.readouterr()

    def payload_of(argv):
        assert run_cli(argv) in (0, 3)
        return json.loads(capsys.readouterr().out)["payload"]

    std = str(outdir / "quotient-standard.json")
    first = payload_of(["type", std, "--json"])
    second = payload_of(["type", std, "--json"])
    assert first == second == {"type": [1, 3]}
    # the dual of the stored standard frame matches the stored dual document
    dual_payload = payload_of(["dual", std, "--json"])
    stored = json.loads((outdir / "dual.json").read_text())
    assert dual_payload["torus"] == stored


def test_demo_reports_are_deterministic(tmp_path, capsys):
    def run_once():
        assert run_cli(["demo", "thm-3.2-generic", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        data.pop("timing_seconds")
        return data

    assert run_once() == run_once()


def test_demo_accepts_type_flag(capsys):
    assert run_cli(["demo", "thm-3.2-generic", "--type", "1,2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["payload"]["quotient_type"] == [1, 2]


@pytest.mark.parametrize("name", ["ex-4.1", "ex-4.2", "thm-3.2-generic"])
@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_demo_rejects_n_below_two_naming_the_flag(name, n, capsys):
    assert run_cli(["demo", name, "--n", n]) == 2
    assert capsys.readouterr().err == "avtk: precondition violated: --n must be at least 2\n"


@pytest.mark.parametrize("argv, flag", [
    (["demo", "ex-5.3", "--n", "3"], "--n"),
    (["demo", "remark-3.3", "--bound", "5"], "--bound"),
    (["demo", "obstruction-table", "--n", "3"], "--n"),
    (["demo", "lemma-5.4", "--type", "1,3"], "--type"),
])
def test_demo_refuses_an_option_it_does_not_take(argv, flag, capsys):
    # these exited 3, 0, 0 and 3 with verdict "pass", the option ignored
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == (
        f"avtk: precondition violated: demo {argv[1]} takes no {flag} option\n")


@pytest.mark.parametrize("coord", [
    pytest.param(json.loads("[" * 899 + "]" * 899), id="list-900-deep"),
    pytest.param("1" * 5_000 + "/x" + "2" * 4_998, id="string-10000"),
    # Fraction read this one for 12.8 s, and "\u0663/4" as 3/4 (exit 2, not in the kernel)
    pytest.param("1e10000000", id="exponent"),
    pytest.param("\u0663/4", id="arabic-indic-digit"),
])
def test_a_bad_point_coordinate_gets_one_short_line(coord, curve_doc, tmp_path, capsys):
    # the value was printed twice: about 3,600 characters for the nested list
    point = write_doc(tmp_path / "point.json", {"coords": [coord, "0"], "basis": "lattice"})
    assert run_cli(["quotient", curve_doc, point]) == 1
    err = capsys.readouterr().err
    assert err.startswith("avtk: parse error: not a fraction: ")
    assert err.count("\n") == 1 and len(err) < 200


# -- one parser per process ---------------------------------------------------------

def _without_timing(out):
    if out.startswith("{"):
        report = json.loads(out)
        report.pop("timing_seconds")
        return report
    return out


def _in_process(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, _without_timing(captured.out), captured.err


def _fresh_process(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "avtk.cli", *argv],
        capture_output=True, text=True,
    )
    return proc.returncode, _without_timing(proc.stdout), proc.stderr


def test_the_reused_parser_keeps_no_state_between_calls(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # both sides wrap the usage line alike
    E = PolarisedTorus(G, [[TAU, 1]], standard_gram([1]))
    E2 = PolarisedTorus(G, [[TAU, 2]], standard_gram([2]))
    a = write_doc(tmp_path / "a.json", torus_to_doc(E))
    b = write_doc(tmp_path / "b.json", torus_to_doc(E2))
    calls = [
        ["isom-search", a, b, "--bound", "3", "--polarised", "--json"],
        ["isom-search", a, b, "--json"],  # default bound 10, not polarised
        ["isom-search", a, b],
        ["type", "--json"],  # usage error: the torus is missing
        ["type", a],
        ["demo", "--list"],
        # no subcommand named: the top-level parser alone
        [], ["-h"], ["frobnicate"], ["--json", "type", a],
        # what the subcommand's parser leaves, refused by the top level
        ["type", a, "extra"], ["type", a, "--bogus"],
        ["type", a, "--he"],  # a prefix of the subcommand's --help
        ["obstruction", "x"], ["obstruction", "--", "7"],
        ["isom-search", a, b, "--bou", "1", "--json"],
    ]
    got = [_in_process(argv, capsys) for argv in calls]
    assert got == [_fresh_process(argv) for argv in calls]
    assert [code for code, _, _ in got] == [3, 3, 3, 1, 0, 0, 1, 0, 1, 1, 1, 1, 0, 1, 0, 3]
    assert got[8][2].splitlines()[-1].startswith("avtk: error: argument command: invalid choice")
    for k, left in ((9, "--json"), (10, "extra"), (11, "--bogus")):  # top-level usage
        lines = got[k][2].splitlines()
        assert lines[0].startswith("usage: avtk [-h]")
        assert lines[-1] == f"avtk: error: unrecognized arguments: {left}"
    usage_error = got[3][2].splitlines()
    assert len(usage_error) == 2 and usage_error[0].startswith("usage: avtk type")


def test_main_builds_the_parser_once(curve_doc, monkeypatch, capsys):
    build = cli._build_parser
    built = []

    def counting_build():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counting_build)
    cli._parser.cache_clear()
    try:
        for argv in (["type", curve_doc], ["kernel", curve_doc, "--json"], ["demo", "--list"],
                     ["type", curve_doc]):
            assert run_cli(argv) == 0
        with pytest.raises(SystemExit):
            run_cli(["type"])
        assert run_cli(["type", curve_doc]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_importing_the_cli_builds_no_parser():
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import avtk.cli\n"
        "print(len(built), avtk.cli._parser.cache_info().currsize)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


# -- the module also runs as a subprocess ----------------------------------------------

def test_subprocess_entry_point(curve_doc):
    proc = subprocess.run(
        [sys.executable, "-m", "avtk.cli", "type", curve_doc, "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["type"] == [3]


def test_subprocess_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "avtk.cli", "frobnicate"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "error" in proc.stderr


# -- loader fuzz ------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers() | st.floats()
    | st.text(max_size=5),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def _matrices(entries):
    """Lists of up to 4 rows of up to 4 entries, rows mostly of one length."""
    return st.integers(0, 4).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n)
                           | st.lists(entries, max_size=4), max_size=4))


_SCALARS = st.sampled_from(["tau", "0", "1", "2*tau", "tau*tau", "1/2", "tau+1", "x", ""])


@st.composite
def _torus_docs(draw):
    """A torus document with at most one field replaced by junk."""
    n = draw(st.integers(1, 2))
    doc = {
        "generators": ["tau"],
        "dim": n,
        # a [Z | D] frame: formal left block, diagonal integer right block
        "periods": [draw(st.lists(_SCALARS, min_size=n, max_size=n))
                    + [str(draw(st.integers(0, 3))) if j == i else "0" for j in range(n)]
                    for i in range(n)],
        "gram": draw(st.none() | st.just(standard_gram([1, 2][:n]))
                     | _matrices(st.integers(-3, 3))),
    }
    key = draw(st.sampled_from([None, "generators", "dim", "periods", "gram", "assumptions"]))
    if key is not None:
        doc[key] = draw(JSON_VALUES)
    return doc


TORUS_DOCS = JSON_VALUES | _torus_docs()
MATRIX_DOCS = JSON_VALUES | _matrices(st.integers(-3, 3)) | _matrices(JSON_VALUES)
EMBEDDING_DOCS = JSON_VALUES | st.fixed_dictionaries({"columns": MATRIX_DOCS})
POINT_DOCS = JSON_VALUES | st.fixed_dictionaries(
    {"coords": st.lists(st.sampled_from(["0", "1/2", "1/3", "2/3", "1/0", "x"]), max_size=5)
     | JSON_VALUES},
    optional={"basis": st.sampled_from(["lattice", "ambient"]) | JSON_VALUES},
)
_SQUARE = torus_to_doc(product([PolarisedTorus(G, [[TAU, 1]], standard_gram([1]))] * 2))


@pytest.mark.parametrize(
    "command,docs",
    [
        pytest.param("type", (TORUS_DOCS,), id="type"),
        pytest.param("kernel", (TORUS_DOCS,), id="kernel"),
        pytest.param("sub", (TORUS_DOCS, st.just({"columns": [[1, 0], [0, 1], [0, 0], [0, 0]]})),
                     id="sub-torus"),
        pytest.param("sub", (st.just(_SQUARE), EMBEDDING_DOCS), id="sub-embedding"),
        pytest.param("degree", (MATRIX_DOCS,), id="degree"),
        pytest.param("quotient", (st.just(_SQUARE), POINT_DOCS), id="quotient-point"),
    ],
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_loaders_exit_cleanly_on_any_json(command, docs, data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        for i, strategy in enumerate(docs):
            path = os.path.join(tmp, f"doc{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data.draw(strategy), fh)
            argv.append(path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
    assert code in range(6)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().count("\n") == 1


# -- one digest over the demos and the queries on the documents they write -----------

# SHA-256 of every run below: its argv, exit code, --json report without the
# timing, and stderr.  It pins the outputs across changes to the eliminations
# in intlinalg, which the runs reach: det over Q (quotient), rat_solve
# (ambient points), int_kernel (complement), rat_inverse (push_point in the
# demos), int_inverse and saturate_columns (idempotent) and rank (every
# embedding).
CLI_RESULTS_DIGEST = "2e98aecd15041f22bec9c0741d96526b9c5a4953303342c55c22f70b33dddf0f"


def _factor_embeddings(dim):
    """Columns of the first curve factor and of the rest, as embedding documents."""
    first = [0, dim]
    rest = [i for i in range(2 * dim) if i not in first]
    return [{"columns": [[int(i == j) for j in idx] for i in range(2 * dim)]}
            for idx in (first, rest)]


def test_cli_results_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    records = []

    def run(argv):
        code, report, err = _in_process(argv + ["--json"], capsys)
        records.append([argv, code, report, err])
        return report

    def write(name, doc):
        Path("inputs", name).write_text(canonical_json(doc))
        return f"inputs/{name}"

    for name in demo_list():
        run(["demo", name, "--out", name])
    for name in ("ex-4.1", "ex-4.2", "thm-3.2-generic"):
        run(["demo", name, "--n", "3", "--out", f"{name}-n3"])
    docs = sorted(p.as_posix() for p in Path(".").glob("*/*.json") if p.name != "report.json")
    Path("inputs").mkdir()
    for k, doc in enumerate(docs):
        torus = json.loads(Path(doc).read_text())
        dim = torus["dim"]
        run(["type", doc])
        run(["dual", doc])
        kernel = run(["kernel", doc])
        points = [write(f"point-{k}-{j}.json", {"coords": g["coords"], "basis": g["basis"]})
                  for j, g in enumerate(kernel["payload"]["generators"][:2])]
        if points:
            run(["quotient", doc, points[0]])
            run(["complement", doc, *points])
        ambient = write(f"ambient-{k}.json",
                        {"coords": ["1/2"] + ["0"] * (dim - 1), "basis": "ambient"})
        run(["quotient", doc, ambient])
        if dim > 1:
            for j, emb in enumerate(_factor_embeddings(dim)):
                path = write(f"embedding-{k}-{j}.json", emb)
                run(["sub", doc, path])
                run(["idempotent", doc, path])
        run(["degree", write(f"gram-{k}.json", torus["gram"])])
    assert len(docs) == 26
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == CLI_RESULTS_DIGEST


CLI_HOM_SEARCH_DIGEST = "33109fd2738bfe03104677d0319e1c4d70d3be9b9c9083aca0aa27ff0ee4ace0"


def test_cli_hom_and_search_digest(tmp_path, monkeypatch, capsys):
    # pins the Hom generators (analytic representations rendered through
    # the CLI) and the search reports on the documents the demos write
    monkeypatch.chdir(tmp_path)
    for argv in (["demo", "ex-5.3", "--out", "ex-5.3"],
                 ["demo", "lemma-5.4", "--out", "lemma-5.4"],
                 ["demo", "ex-4.1", "--n", "3", "--out", "ex-4.1-n3"]):
        _in_process(argv, capsys)
    pairs = [("ex-5.3/surface.json", "ex-5.3/surface-dual.json"),
             ("ex-5.3/product.json", "ex-5.3/product-dual.json"),
             ("lemma-5.4/product.json", "lemma-5.4/product-dual.json"),
             ("ex-4.1-n3/quotient-standard.json", "ex-4.1-n3/dual.json")]
    calls = []
    for x, y in pairs:
        calls += [["hom", x, y],
                  ["isom-search", x, y, "--bound", "1"],
                  ["isom-search", x, y, "--bound", "1", "--polarised"],
                  ["pp-search", x, y, "--bound", "2"]]
    calls.append(["pp-search", "ex-5.3/surface.json", "--bound", "2"])
    records = [[argv, *_in_process(argv + ["--json"], capsys)] for argv in calls]
    assert [code for _, code, _, _ in records] == [0, 3, 3, 3, 0, 0, 0, 3, 0, 0, 0, 3,
                                                   0, 3, 3, 3, 3]
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == CLI_HOM_SEARCH_DIGEST


# SHA-256 of the runs that neither digest above reaches, in the same form:
# the elliptic and obstruction queries, a malformed period, the demo list
# (asked for, and by default), an unknown demo and a search with no Hom.
CLI_QUERIES_DIGEST = "1cd2101217a3575acfc60e12fd6cea21a447baee42834ff001cda61bcada8992"


def test_cli_queries_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name in ("tau_E", "tau_F"):
        write_doc(Path(f"{name}.json"),
                  torus_to_doc(PolarisedTorus(G2, [[G2.scalar(name), 1]], standard_gram([1]))))
    calls = [["elliptic", "sqrt(-2)", "2"], ["elliptic", "--formal", "tau", "3"],
             ["elliptic", "sqrt(-2", "2"], ["obstruction", "7"],
             ["demo", "--list"], ["demo"], ["demo", "ex-9.9"],
             ["isom-search", "tau_E.json", "tau_F.json"]]
    records = [[argv, *_in_process(argv + ["--json"], capsys)] for argv in calls]
    assert [code for _, code, _, _ in records] == [0, 0, 1, 0, 0, 0, 1, 4]
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == CLI_QUERIES_DIGEST


# The positionals of each subcommand, as its --help names them.
POSITIONALS = {
    "type": ["torus"], "kernel": ["torus"], "quotient": ["torus", "point"],
    "complement": ["torus", "points"], "dual": ["torus"], "sub": ["torus", "embedding"],
    "idempotent": ["torus", "embedding"], "hom": ["domain", "codomain"],
    "isom-search": ["domain", "codomain"], "pp-search": ["torus", "dual"],
    "elliptic": ["tau", "n"], "degree": ["matrix"], "obstruction": ["d"], "demo": ["name"],
}


def test_the_subcommands_are_the_fourteen_with_help():
    parser, commands = cli._parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(commands) == list(sub.choices) == list(POSITIONALS)


@pytest.mark.parametrize("command", list(POSITIONALS))
def test_help_of_each_subcommand_exits_zero_and_names_its_positionals(command, monkeypatch,
                                                                      capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: avtk {command} ")
    section = out.split("\npositional arguments:\n")[1].split("\n\n")[0]
    names = [line.split()[0] for line in section.splitlines() if not line.startswith("   ")]
    assert names == POSITIONALS[command]


# -- the inputs digest, from the kept encodings of the documents loaded --------------

def _load(path):
    return json.loads(Path(path).read_text())


def test_the_inputs_digest_is_that_of_the_inputs_rebuilt_from_the_files(tmp_path, monkeypatch,
                                                                         capsys):
    # every subcommand, on a first call, which encodes each document, and on
    # a second, which reads the kept encodings
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_ENCODINGS", {})
    curve = write_doc(Path("curve.json"),
                      torus_to_doc(PolarisedTorus(G, [[TAU, 3]], standard_gram([3]))))
    E = PolarisedTorus(G, [[TAU, 1]], standard_gram([1]))
    square = write_doc(Path("square.json"), torus_to_doc(product([E, E])))
    p, q = (write_doc(Path(f"point-{k}.json"), {"coords": coords})
            for k, coords in enumerate((["1/3", "0"], ["0", "1/3"])))
    emb = write_doc(Path("embedding.json"), _factor_embeddings(2)[0])
    matrix = write_doc(Path("matrix.json"), [[2, 1], [0, 3]])
    dual = torus_to_doc(torus_from_doc(_load(square)).dual().torus)
    no_options = {"n": None, "type": None, "bound": None, "max_d": None}
    cases = [
        (["type", curve], {"torus": _load(curve)}),
        (["kernel", curve], {"torus": _load(curve)}),
        (["quotient", curve, p], {"torus": _load(curve), "point": _load(p)}),
        (["complement", curve, p, q], {"torus": _load(curve), "points": [_load(p), _load(q)]}),
        (["dual", curve], {"torus": _load(curve)}),
        (["sub", square, emb], {"torus": _load(square), "embedding": _load(emb)}),
        (["idempotent", square, emb], {"torus": _load(square), "embedding": _load(emb)}),
        (["hom", square, square], {"domain": _load(square), "codomain": _load(square)}),
        (["isom-search", square, square, "--bound", "1"],
         {"domain": _load(square), "codomain": _load(square), "bound": 1, "polarised": False}),
        (["pp-search", square, "--bound", "1"], {"torus": _load(square), "dual": dual, "bound": 1}),
        (["pp-search", square, square, "--bound", "1"],
         {"torus": _load(square), "dual": _load(square), "bound": 1}),
        (["elliptic", "sqrt(-2)", "2"], {"tau": "sqrt(-2)", "n": 2, "formal": False}),
        (["degree", matrix], {"matrix": _load(matrix)}),
        (["obstruction", "7"], {"d": 7}),
        (["demo", "obstruction-table"], dict(no_options, demo="obstruction-table")),
        (["demo", "--list"], {"list": True}),
    ]
    assert {argv[0] for argv, _ in cases} == set(POSITIONALS)
    for _ in range(2):
        for argv, inputs in cases:
            code, report, err = _in_process(argv + ["--json"], capsys)
            assert (code, err) == (0, ""), argv
            assert report["inputs_digest"] == digest(inputs), argv


def test_a_document_rewritten_between_calls_gets_the_digest_of_its_new_text(tmp_path,
                                                                            monkeypatch, capsys):
    path = tmp_path / "torus.json"
    seen = []  # the document each call's handler was given
    monkeypatch.setattr(cli, "torus_from_doc", lambda doc: seen.append(doc) or torus_from_doc(doc))
    digests = []
    # the last text is another spelling of the first document
    for d, dump in ((1, canonical_json), (1, canonical_json), (2, canonical_json), (1, json.dumps)):
        doc = torus_to_doc(PolarisedTorus(G, [[TAU, d]], standard_gram([d])))
        path.write_text(dump(doc))
        code, report, _ = _in_process(["type", str(path), "--json"], capsys)
        assert code == 0 and report["payload"]["type"] == [d]
        assert report["inputs_digest"] == digest({"torus": doc})
        digests.append(report["inputs_digest"])
    assert digests[0] == digests[1] == digests[3] != digests[2]
    assert seen[0] == seen[1] and seen[0] is not seen[1]  # parsed afresh on every call


def test_at_most_the_cap_of_encodings_is_kept(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_ENCODINGS", {})
    texts = [json.dumps([[k]]) for k in range(1, cli._ENCODINGS_CAP + 2)]
    for k, text in enumerate(texts):
        path = tmp_path / f"matrix-{k}.json"
        path.write_text(text)
        assert cli.main(["degree", str(path)]) == 0
    capsys.readouterr()
    assert list(cli._ENCODINGS) == texts[1:]  # the least recently recorded went first


def test_a_json_integer_past_the_digit_limit_exits_one_with_one_short_line(tmp_path, capsys):
    # json.load raised a plain ValueError past int's digit limit: a traceback
    if getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0:
        pytest.skip("this interpreter sets no digit limit on int()")
    path = tmp_path / "huge.json"
    path.write_text(canonical_json(_curve_doc(dim=0)).replace('"dim": 0', '"dim": ' + "9" * 5000))
    assert run_cli(["type", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "avtk: parse error: document holds an integer with too many digits\n"
    assert len(err) < 200


@pytest.mark.parametrize("text", ["x" * 3000, "9" * 5000])
def test_a_long_bad_type_is_quoted_cut_to_one_short_line(text, capsys):
    # the whole text was quoted: a 3,085- and a 5,085-character line
    assert run_cli(["demo", "ex-4.1", "--type", text]) == 2
    err = capsys.readouterr().err
    assert err == ("avtk: precondition violated: type must be comma-separated integers, "
                   f"e.g. 1,3; got '{text[:59]}...\n")


def test_a_dim_past_the_digit_limit_is_quoted_cut_to_one_short_line(tmp_path, capsys):
    # with the limit off, "periods must be a {dim} x {2 dim} matrix" quoted both
    # numbers in full: a line of over 10,000 characters for a 5,000-digit dim
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no digit limit to switch off")
    path = tmp_path / "huge.json"
    path.write_text(canonical_json(_curve_doc(dim=0)).replace('"dim": 0', '"dim": ' + "9" * 5000))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert run_cli(["type", str(path)]) == 1
    finally:
        sys.set_int_max_str_digits(limit)
    err = capsys.readouterr().err
    assert err == (f"avtk: parse error: periods must be a {'9' * 60}... x 1{'9' * 59}... "
                   "matrix of expressions\n")


def _digits_past_the_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit == 0:
        pytest.skip("this interpreter sets no digit limit on int()")
    return "9" * (limit + 700)


def test_a_period_literal_past_the_digit_limit_exits_one_with_one_short_line(tmp_path, capsys):
    # int() of the literal raised ValueError: a traceback, exit 1 by accident
    digits = _digits_past_the_limit()
    path = write_doc(tmp_path / "huge.json", _curve_doc(periods=[["tau", digits]]))
    assert run_cli(["type", path]) == 1
    err = capsys.readouterr().err
    assert err == (f"avtk: parse error: integer literal '{digits[:59]}... has too many digits "
                   "(at offset 0)\n")


def test_an_elliptic_literal_past_the_digit_limit_exits_one_with_one_short_line(capsys):
    digits = _digits_past_the_limit()
    assert run_cli(["elliptic", f"({digits}+1*sqrt(-3))/2", "2"]) == 1
    err = capsys.readouterr().err
    assert err == (f"avtk: parse error: integer literal '{digits[:59]}... has too many digits "
                   "(at offset 1)\n")


@pytest.mark.parametrize("tau", [
    pytest.param("(\u0663+1*sqrt(-3))/2", id="arabic-indic-digit"),
    pytest.param("x" * 5000, id="x-5000"),
])
def test_an_elliptic_period_is_refused_in_one_short_line(tau, capsys):
    # "٣" was read as 3; a period of the wrong form was quoted in full
    assert run_cli(["elliptic", tau, "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("avtk: parse error: expected a period of the form ")
    assert err.count("\n") == 1 and len(err) < 200
