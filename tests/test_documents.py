import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from avtk import documents
from avtk.demos import demo_list, run_demo
from avtk.documents import (
    Report,
    canonical_json,
    digest,
    embedding_from_doc,
    fraction_matrix_doc,
    fraction_str,
    int_matrix_doc,
    parse_fraction,
    point_from_doc,
    point_to_doc,
    scalar_matrix_doc,
    torus_from_doc,
    torus_to_doc,
)
from avtk.errors import DocumentError, PreconditionError, quoted
from avtk.scalars import GeneratorSet
from avtk.torus import PolarisedTorus, SubvarietyEmbedding, TorsionPoint, product, standard_gram
from oracles import embedding_to_doc
from test_cli import MALFORMED_INPUTS, _curve_doc, _in_process

G = GeneratorSet(("tau",))
TAU = G.scalar("tau")


def curve(d=1):
    return PolarisedTorus(G, [[TAU, d]], standard_gram([d]))


# -- canonical JSON -----------------------------------------------------------

def test_canonical_json_is_sorted_and_newline_terminated():
    text = canonical_json({"b": 1, "a": [2, 3]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": [2, 3], "b": 1}


def test_canonical_json_is_deterministic():
    doc = {"x": [1, {"z": "s", "y": 2}]}
    assert canonical_json(doc) == canonical_json(json.loads(canonical_json(doc)))
    assert digest(doc) == digest(json.loads(canonical_json(doc)))


def _stdlib_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _nested_list(depth):
    value = []
    for _ in range(depth - 1):
        value = [value]
    return value


# quotes, backslashes, control characters, separators, non-BMP, and any character
_SPECIAL = '"\\/\x00\x08\x1f\x7f\n\t\r é\u2028\uffff\U0001f600a'
_TEXT = st.text(st.sampled_from(_SPECIAL) | st.characters(), max_size=12)
_INTS = st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-2**64)
_LEAVES = (_TEXT | _INTS | st.booleans() | st.none() | st.floats()
           | st.sampled_from([-0.0, 1e300, -1e-300, float("inf"), float("-inf"), float("nan")]))
_ROWS = st.lists(_TEXT) | st.lists(_INTS) | st.lists(_INTS | st.booleans())
_JSON_VALUES = st.recursive(
    _LEAVES | _ROWS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
@example([])
@example({})
@example(())
@example([[], {}, ()])
@example({"periods": [["tau", "3"]], "gram": [[0, 3], [-3, 0]], "dim": 1})
def test_canonical_json_equals_the_stdlib_encoder(value):
    assert canonical_json(value) == _stdlib_json(value)


def test_canonical_json_of_a_900_deep_list_equals_the_stdlib_encoder():
    # one frame per level: a point coordinate nested this deep is refused
    # by its JSON type, after the document was written
    value = _nested_list(900)
    assert canonical_json(value) == _stdlib_json(value)


@pytest.mark.parametrize("value", [
    {1, 2}, Fraction(1, 2), [["x", Fraction(1, 2)]], {"a": [0, {3}]}, {1: "a"},
])
def test_canonical_json_refuses_other_types(value):
    with pytest.raises(TypeError):
        canonical_json(value)


def test_fraction_strings():
    assert fraction_str(Fraction(3, 4)) == "3/4"
    assert fraction_str(Fraction(-2)) == "-2"
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction("-7") == Fraction(-7)
    # a sign, ASCII digits, then "/" or "." and ASCII digits
    assert parse_fraction("+2") == Fraction(2)
    assert parse_fraction("-1.50") == Fraction(-3, 2)
    assert parse_fraction("007/014") == Fraction(1, 2)
    with pytest.raises(DocumentError):
        parse_fraction("x")


@pytest.mark.parametrize("text", [
    # an exponent: 1e10000000 took 12.8 s and larger ones minutes and GBs
    "1e10000000", "1E5", "2.5e-3",
    "\u0663/4", "\uff13", "1_000", "1/2_0",  # non-ASCII digits and underscores
    " 3", "3 ", "3\n", "- 3", "3/0", "3.", ".5", "1/2/3", "1.5/2", "3/-4",
    "inf", "nan", "", "+", "0x10", "1" * 5000,
])
def test_parse_fraction_refuses_every_other_string_in_one_line(text):
    with pytest.raises(DocumentError) as info:
        parse_fraction(text)
    message = str(info.value)
    assert message.startswith("not a fraction: ") and "\n" not in message
    assert len(message) < 100


# -- torus documents ------------------------------------------------------------

def test_torus_doc_round_trip():
    T = curve(3)
    doc = torus_to_doc(T)
    assert doc["dim"] == 1
    assert doc["generators"] == ["tau"]
    back = torus_from_doc(doc)
    assert back == T


def test_torus_doc_round_trip_on_products():
    T = product([curve(1), curve(3)])
    assert torus_from_doc(torus_to_doc(T)) == T


def test_every_demo_document_round_trips():
    # the scalar parser's nesting cap must leave everything avtk writes readable
    for name in demo_list():
        for doc in run_demo(name).documents.values():
            assert torus_to_doc(torus_from_doc(doc)) == doc


def test_torus_doc_infers_standard_gram():
    doc = torus_to_doc(curve(3))
    del doc["gram"]
    back = torus_from_doc(doc)
    assert back.gram == curve(3).gram


def test_torus_doc_validation_errors():
    with pytest.raises(DocumentError):
        torus_from_doc({"generators": ["tau"]})
    doc = torus_to_doc(curve(2))
    doc["periods"] = [["tau"]]
    with pytest.raises(DocumentError):
        torus_from_doc(doc)
    doc2 = torus_to_doc(curve(2))
    del doc2["gram"]
    doc2["periods"] = [["tau", "tau"]]  # right block not constant
    with pytest.raises(DocumentError):
        torus_from_doc(doc2)


@pytest.mark.parametrize("right", [
    [["t", "0"], ["0", "3"]],    # not constant
    [["1", "1"], ["0", "3"]],    # not diagonal
    [["1/2", "0"], ["0", "3"]],  # not an integer
    [["0", "0"], ["0", "3"]],    # zero
    [["1", "0"], ["0", "-3"]],   # negative
])
def test_torus_doc_without_gram_refuses_a_non_standard_right_block(right):
    doc = {"generators": ["t"], "dim": 2,
           "periods": [["t", "0"] + right[0], ["0", "t"] + right[1]]}
    with pytest.raises(DocumentError, match="cannot infer the pairing"):
        torus_from_doc(doc)


def test_standard_torus_doc_without_gram_loads_equal_to_one_with_it():
    doc = {"generators": ["t"], "dim": 2,
           "periods": [["t", "2*t", "1", "0"], ["2*t", "t*t", "0", "3"]],
           "gram": standard_gram([1, 3])}
    without = {key: value for key, value in doc.items() if key != "gram"}
    assert torus_from_doc(without) == torus_from_doc(doc)


# -- kept tori ------------------------------------------------------------------

def test_equal_documents_get_the_same_torus():
    doc = torus_to_doc(curve(3))
    T = torus_from_doc(doc)
    assert torus_from_doc(json.loads(canonical_json(doc))) is T  # another dict, equal content
    assert torus_from_doc(dict(doc, periods=[["tau", 3]])) is T  # the period text of 3 is "3"
    assert T.polarisation_type() == (3,)


@pytest.mark.parametrize("change", [
    {"gram": standard_gram([1])},
    {"gram": None},  # inferred: the same form, another key
    {"assumptions": "Im tau > 0"},
    {"generators": ["tau", "s"]},
])
def test_a_document_of_other_content_gets_another_torus(change):
    T = torus_from_doc(torus_to_doc(curve(3)))
    other = torus_from_doc(dict(torus_to_doc(curve(3)), **change))
    assert other is not T
    assert (other.gram, other.assumptions, other.gens.names) == (
        tuple(map(tuple, standard_gram([1 if change.get("gram") else 3]))),
        change.get("assumptions", ""), tuple(change.get("generators", ["tau"])))


def test_the_cap_evicts_the_torus_asked_for_least_recently():
    docs = [torus_to_doc(curve(d)) for d in range(1, documents._TORI_CAP + 2)]
    kept = [torus_from_doc(doc) for doc in docs[:-1]]
    assert torus_from_doc(docs[0]) is kept[0]  # now the most recent
    torus_from_doc(docs[-1])
    assert len(documents._TORI) == documents._TORI_CAP
    assert torus_from_doc(docs[0]) is kept[0]
    again = torus_from_doc(docs[1])
    assert again is not kept[1] and again == kept[1]


def test_a_document_changed_in_place_gets_the_torus_of_its_new_content():
    doc = torus_to_doc(curve(2))
    assert torus_from_doc(doc).polarisation_type() == (2,)
    doc["periods"][0][1] = "5"
    doc["gram"][0][1], doc["gram"][1][0] = 5, -5
    T = torus_from_doc(doc)
    assert T == curve(5) and T.polarisation_type() == (5,)
    doc["assumptions"] = 5
    with pytest.raises(DocumentError, match="assumptions must be a string"):
        torus_from_doc(doc)


def test_a_refused_document_is_never_kept():
    doc = dict(torus_to_doc(curve(2)), gram=[[0, 0], [0, 0]])
    for _ in range(2):
        with pytest.raises(PreconditionError, match="degenerate"):
            torus_from_doc(doc)
    assert not documents._TORI


# the valid document a malformed one is a variant of, where it is not
# _curve_doc() or its argv's SQUARE: each of these has a key that Python
# finds equal to the malformed one's (True == 1, tuple("tau")), were it
# taken before the checks
_TWINS = {"generators-str": {"generators": ["t", "a", "u"], "dim": 1,
                             "periods": [["t*a", "1"]], "gram": [[0, 1], [-1, 0]]},
          "gram-bool": _curve_doc(gram=[[0, 1], [-1, 0]])}


@pytest.mark.parametrize("argv,contents", MALFORMED_INPUTS)
def test_a_malformed_document_is_refused_alike_after_its_valid_twin(
        argv, contents, request, tmp_path, capsys):
    square = tmp_path / "square.json"
    square.write_text(canonical_json(torus_to_doc(product([curve(), curve()]))))
    bad = tmp_path / "bad.json"
    if contents is None:
        bad.mkdir()
    elif isinstance(contents, bytes):
        bad.write_bytes(contents)
    else:
        bad.write_text(contents)
    twin = square
    if "SQUARE" not in argv:
        twin = tmp_path / "twin.json"
        twin.write_text(canonical_json(_TWINS.get(request.node.callspec.id, _curve_doc())))
    argv = [{"BAD": str(bad), "SQUARE": str(square)}.get(a, a) for a in argv]
    cold = _in_process(argv, capsys)
    documents._TORI.clear()
    assert _in_process(["type", str(twin)], capsys)[0] == 0
    assert len(documents._TORI) == 1
    warm = _in_process(argv, capsys)
    assert warm == cold
    assert cold[0] == 1 and cold[2].startswith("avtk: ") and cold[2].count("\n") == 1


# -- point documents --------------------------------------------------------------

def test_point_doc_round_trip_lattice_basis():
    p = TorsionPoint([Fraction(1, 3), Fraction(1, 2)])
    doc = point_to_doc(p)
    assert doc["basis"] == "lattice"
    back = point_from_doc(doc, curve(6))
    assert back == p


def test_point_doc_ambient_basis():
    T = curve(2)
    doc = {"coords": ["1"], "basis": "ambient"}
    p = point_from_doc(doc, T)
    # 1 = (1/2) * second lattice vector
    assert p.coords == (Fraction(0), Fraction(1, 2))


def test_point_doc_errors():
    T = curve(2)
    with pytest.raises(DocumentError):
        point_from_doc({"coords": ["1/2"], "basis": "nonsense"}, T)
    with pytest.raises(DocumentError):
        point_from_doc({"coords": ["1/2"]}, T)
    with pytest.raises(DocumentError):
        point_from_doc({"coords": ["1/2", "0", "0"], "basis": "lattice"}, T)


# -- embedding documents ------------------------------------------------------------

def test_embedding_doc_round_trip():
    T = product([curve(1), curve(1)])
    emb = SubvarietyEmbedding.from_spanning_vectors(T, [[1, 0, 0, 0], [0, 0, 1, 0]])
    doc = embedding_to_doc(emb)
    back = embedding_from_doc(doc, T)
    assert back == emb
    with pytest.raises(DocumentError):
        embedding_from_doc({"rows": []}, T)


# -- matrix documents ----------------------------------------------------------------

def test_matrix_docs():
    assert int_matrix_doc(((1, 2), (3, 4))) == [[1, 2], [3, 4]]
    assert fraction_matrix_doc([[Fraction(1, 2)]]) == [["1/2"]]
    assert scalar_matrix_doc([[TAU + 1]]) == [["tau + 1"]]


# -- reports ----------------------------------------------------------------------------

def test_report_json_shape():
    r = Report(command=["type", "t.json"], inputs={"torus": {"dim": 1}},
               payload={"type": [1]}, verdict="pass", timing_seconds=0.25)
    data = json.loads(r.to_json())
    assert data["command"] == ["type", "t.json"]
    assert data["verdict"] == "pass"
    assert data["payload"] == {"type": [1]}
    assert data["timing_seconds"] == 0.25
    assert len(data["inputs_digest"]) == 64


def test_report_without_timing_is_deterministic():
    def make(t):
        return Report(command=["x"], inputs={}, payload={"a": 1},
                      verdict="pass", timing_seconds=t)

    assert make(0.1).to_json(include_timing=False) == make(9.9).to_json(include_timing=False)
    assert "timing" not in make(0.1).to_json(include_timing=False)


def test_quoted_shows_an_int_past_the_digit_limit_by_its_size():
    # repr raised ValueError past int's digit limit, so a refusal that quoted
    # such an int raised that instead
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit == 0:
        pytest.skip("this interpreter sets no digit limit on int()")
    assert quoted(10 ** 5000) == "<int of 16610 bits>"
    assert quoted([1, 10 ** 5000]) == "<list>"
    assert quoted(10 ** (limit - 1)) == repr(10 ** (limit - 1))[:60] + "..."
    with pytest.raises(DocumentError) as caught:
        torus_from_doc({"generators": ["t"], "dim": 10 ** 5000, "periods": []})
    assert str(caught.value) == ("periods must be a <int of 16610 bits> x <int of 16611 bits> "
                                 "matrix of expressions")
