"""JSON documents for tori, points and embeddings, plus run reports.

Every value that leaves the library does so through these functions, and
everything they emit is canonical: object keys sorted, fractions reduced
and rendered "p/q", scalar entries rendered in the parser's own grammar
so documents round-trip exactly.  Reports are byte-identical for
identical inputs except for the timing field.

canonical_json is an encoder specialised to the types that documents and
reports hold, and equals the stdlib's indented json.dumps byte for byte;
json's own encoder runs in pure Python whenever it indents.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring as _quote  # json's C escaper, when built

from .errors import DocumentError, PreconditionError, quoted
from .scalars import GeneratorSet, parse_scalar, render_scalar
from .torus import (
    PolarisedTorus,
    SubvarietyEmbedding,
    TorsionPoint,
    ambient_to_lattice,
    standard_diagonal,
    standard_torus,
)


def fraction_str(x) -> str:
    return str(x) if type(x) in (int, Fraction) else str(Fraction(x))


# an optional sign and ASCII digits, then "/" or "." and ASCII digits; Fraction
# alone also reads exponents, underscores, spaces and non-ASCII digits
_FRACTION = re.compile(r"[+-]?[0-9]+(?:[/.][0-9]+)?")


def parse_fraction(value) -> Fraction:
    """A JSON string such as "-3/4", "7" or "0.25", or a JSON integer, as a
    Fraction.  The refusal of any other value names its type, or quotes the
    string once, cut to 60 characters, so that it is one short line."""
    if type(value) is int:  # bool is an int subclass
        return Fraction(value)
    if not isinstance(value, str):
        kind = {dict: "object", type(None): "null"}.get(type(value), type(value).__name__)
        raise DocumentError(f"not a fraction: a JSON {kind}, not a string or an integer")
    if _FRACTION.fullmatch(value):
        try:
            return Fraction(value)  # ValueError: more digits than int() reads
        except (ValueError, ZeroDivisionError):
            pass
    raise DocumentError(f"not a fraction: {quoted(value)}")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline.

    Byte for byte ``json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=False) + "\\n"``, for dicts with str keys, lists, tuples,
    str, int, bool, None and float; any other key or value raises
    TypeError.  A row of only str or only int is joined in one step.
    """
    out = []
    _encode(obj, "\n", out)
    out.append("\n")
    return "".join(out)


_STR, _INT = {str}, {int}


def _encode(value, newline: str, out: list) -> None:
    """Append the JSON text of value to out; newline is a line break plus
    the indent of value's own line.  One frame per level of nesting."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):  # json spells the non-finite values its own way
        text = float.__repr__(value)
        out.append({"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        kinds = set(map(type, value))
        if kinds == _STR or kinds == _INT:
            text = map(_quote if kinds == _STR else int.__repr__, value)
            out.append("[" + inner + ("," + inner).join(text) + newline + "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _encode(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _quote(key) + ": ")
            _encode(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


# -- tori ----------------------------------------------------------------------

def torus_to_doc(T: PolarisedTorus) -> dict:
    return {
        "generators": list(T.gens.names),
        "dim": T.dim,
        "periods": scalar_matrix_doc(T.periods),
        "gram": [list(row) for row in T.gram],
        "assumptions": T.assumptions,
    }


def _is_matrix(value, m, n) -> bool:
    """Is value a list of m lists of n entries each?"""
    return (
        isinstance(value, list)
        and len(value) == m
        and all(isinstance(row, list) and len(row) == n for row in value)
    )


# the tori torus_from_doc built, keyed by the validated content of their
# documents, least recently asked for first; at most _TORI_CAP of them
_TORI: dict = {}
_TORI_CAP = 64


def torus_from_doc(doc: dict) -> PolarisedTorus:
    """Build a torus from its document, inferring the standard pairing
    from a [Z | D] frame when no gram matrix is given.  The optional
    ``assumptions`` string is carried over unchanged.

    The _TORI_CAP tori last asked for are kept, keyed by what the build
    reads of the document: the generator names, dim, the period texts,
    the gram as int rows (or None) and the assumptions.  A document with
    the content of a kept torus gets that torus, with the facts it keeps,
    in place of a new parse and gram check; the key is the content, not
    the dict, so a dict changed in place gets the torus of its new
    content.  The shape, generator, gram and assumptions checks run on
    every document before a kept torus is returned, and a document that
    any check refuses is never kept, so every refusal is raised again with
    the same message and precedence.  Tori are immutable, so sharing one
    is safe.
    """
    if not isinstance(doc, dict):
        raise DocumentError("torus document must be a JSON object")
    for key in ("generators", "dim", "periods"):
        if key not in doc:
            raise DocumentError(f"torus document is missing {key!r}")
    if not isinstance(doc["generators"], list):  # a string would be read as one-letter names
        raise DocumentError("generators must be a list of names")
    try:
        gens = GeneratorSet(doc["generators"])
    except ValueError as exc:
        raise DocumentError(f"bad generator list: {exc}") from None
    n = doc["dim"]
    if type(n) is not int or n < 1:  # bool is an int subclass
        raise DocumentError("dim must be a positive integer")
    rows = doc["periods"]
    if not _is_matrix(rows, n, 2 * n):
        raise DocumentError(
            f"periods must be a {quoted(n)} x {quoted(2 * n)} matrix of expressions"
        )
    texts = tuple(tuple(map(str, row)) for row in rows)
    gram = doc.get("gram")
    # bool is an int subclass, and int() would truncate floats and parse strings
    gram_ok = gram is None or (_is_matrix(gram, 2 * n, 2 * n)
                               and all(type(x) is int for row in gram for x in row))
    assumptions = doc.get("assumptions", "")
    key = None
    if gram_ok and isinstance(assumptions, str):
        key = (gens.names, n, texts, gram if gram is None else tuple(map(tuple, gram)),
               assumptions)
        kept = _TORI.pop(key, None)
        if kept is not None:
            _TORI[key] = kept  # now the newest
            return kept
    # not kept: the checks below refuse in their own order, and a document
    # that passes them all has a key
    # each distinct entry is parsed once, in reading order; equal entries
    # share one scalar, which is immutable
    parsed = {t: parse_scalar(gens, t) for t in dict.fromkeys(t for row in texts for t in row)}
    periods = [[parsed[t] for t in row] for row in texts]
    if gram is not None:
        if not gram_ok:
            raise DocumentError(f"gram must be a {2 * n} x {2 * n} integer matrix")
    else:
        D = standard_diagonal(periods)
        if D is None:
            raise DocumentError(
                "cannot infer the pairing: right period block is not a diagonal of "
                "positive integers; supply a gram matrix"
            )
    if not isinstance(assumptions, str):
        raise DocumentError("assumptions must be a string")
    if gram is None:
        torus = standard_torus(gens, [row[:n] for row in periods], D, assumptions)
    else:
        torus = PolarisedTorus(gens, periods, gram, assumptions)
    if len(_TORI) >= _TORI_CAP:
        del _TORI[next(iter(_TORI))]
    _TORI[key] = torus
    return torus


# -- points --------------------------------------------------------------------

def point_to_doc(p: TorsionPoint) -> dict:
    return {
        "coords": [fraction_str(x) for x in p.coords],
        "basis": "lattice",
    }


def point_from_doc(doc: dict, torus: PolarisedTorus) -> TorsionPoint:
    if not isinstance(doc, dict) or "coords" not in doc:
        raise DocumentError("point document must be an object with coords")
    basis = doc.get("basis", "lattice")
    if not isinstance(doc["coords"], list):
        raise DocumentError("point coords must be a list of fractions")
    coords = [parse_fraction(x) for x in doc["coords"]]
    if basis == "lattice":
        if len(coords) != 2 * torus.dim:
            raise DocumentError(
                f"lattice point needs {2 * torus.dim} coordinates, got {len(coords)}"
            )
        return TorsionPoint(coords)
    if basis == "ambient":
        if len(coords) != torus.dim:
            raise DocumentError(
                f"ambient point needs {torus.dim} coordinates, got {len(coords)}"
            )
        (lattice,) = ambient_to_lattice(torus, [coords])
        if lattice is None:
            raise PreconditionError("vector is not a rational combination of the periods")
        return TorsionPoint(lattice)
    raise DocumentError("point basis must be 'lattice' or 'ambient'")


# -- embeddings and matrices ---------------------------------------------------

def embedding_from_doc(doc: dict, torus: PolarisedTorus) -> SubvarietyEmbedding:
    if not isinstance(doc, dict) or "columns" not in doc:
        raise DocumentError("embedding document must be an object with columns")
    columns = int_matrix_from_doc(doc["columns"], "columns")
    if not columns[0]:  # rows [] would be a subtorus of dimension 0
        raise DocumentError("embedding columns must hold at least one column")
    return SubvarietyEmbedding(torus, columns)


def int_matrix_doc(M) -> list:
    return [[int(x) for x in row] for row in M]


def int_matrix_from_doc(value, what: str = "matrix") -> list:
    """A non-empty list of equal-length rows of JSON integers, as given."""
    # bool is an int subclass, and int() would truncate floats and parse strings
    if not (isinstance(value, list) and value and isinstance(value[0], list)
            and _is_matrix(value, len(value), len(value[0]))
            and all(type(x) is int for row in value for x in row)):
        raise DocumentError(f"{what} must be a list of equal-length rows of integers")
    return value


def scalar_matrix_doc(M) -> list:
    return [[render_scalar(x) for x in row] for row in M]


def fraction_matrix_doc(M) -> list:
    return [[fraction_str(x) for x in row] for row in M]


# -- reports -------------------------------------------------------------------

@dataclass(frozen=True)
class Report:
    """What a CLI invocation did: inputs, outcome, and a verdict.

    verdict is "bounded" for a negative search result valid only up to
    its bound, else "pass" (a demo that expects such a result included);
    a command that fails writes no report, only one line on stderr.
    """

    command: list
    inputs: dict
    payload: dict
    verdict: str
    timing_seconds: float

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "command": list(self.command),
            "inputs_digest": digest(self.inputs),
            "payload": self.payload,
            "verdict": self.verdict,
        }
        if include_timing:
            out["timing_seconds"] = round(self.timing_seconds, 6)
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return canonical_json(self.to_dict(include_timing=include_timing))
