"""Command line front end.

Subcommands load torus/point/embedding documents, run one library
operation, and emit a report either as human-readable lines or, with
--json, as canonical JSON suitable for golden-file comparison.  Exit
codes encode outcomes: 0 success, 1 parse or usage error (an --out that
cannot be written included), 2 precondition violation, 3 a bounded
search that found nothing (also used by demos whose expected outcome is
a bounded negative), 4 an isomorphism search with no homomorphisms at
all, 5 a failed assertion.

Each subcommand is registered once, by one command(...) call in
_build_parser: its name, help, arguments and handler.  A handler takes
the parsed arguments, documents (_DOCUMENTS) loaded, and returns
(payload, exit code); the arguments it leaves, all but --json and --out,
are the report's inputs.  The report goes to --out before any output.

The bounded searches run in the calling process.  The argument parsers
are built by the first main() call and reused by every later call in the
same process; importing this module builds no parser.  A command line
naming a subcommand is parsed by that subcommand's parser alone, and the
top-level parser refuses what it leaves, as its own parse_args would.
The tori are kept too: every torus document goes through
documents.torus_from_doc, which keeps the last tori it built by their
documents' content, so a later call on an equal document reuses the
torus and the facts it keeps (its period slice, its gram's Smith form)
after the same document checks.  Every document is read and parsed
afresh on every call; the report's inputs digest reads its canonical
encoding, kept by its file text.  No result or verdict is kept; every
command's checks run on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from math import prod
from pathlib import Path

from .demos import demo_list, run_demo
from .documents import (
    Encoded,
    Report,
    canonical_json,
    embedding_from_doc,
    fraction_matrix_doc,
    int_matrix_doc,
    int_matrix_from_doc,
    point_from_doc,
    point_to_doc,
    scalar_matrix_doc,
    torus_from_doc,
    torus_to_doc,
)
from .elliptic import QuadNumber, formal_quotient_isomorphic, quotient_isomorphic, reduce_tau
from .errors import DocumentError, PreconditionError, ScalarParseError
from .homs import hom_module, idempotent, isom_search
from .ppsearch import admissible_family, obstruction_report, pp_search
from .torus import isogeny_degree, restricted_polarisation
from .verdicts import Found, NoHoms

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_NOT_FOUND = 3
EXIT_NO_HOMS = 4
EXIT_ASSERTION = 5


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_json(path: str):
    """(document, file text) of the JSON file at path, parsed afresh."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
            return json.loads(text), text
        except RecursionError:
            raise DocumentError("document is nested too deeply") from None
        except json.JSONDecodeError:
            raise
        except ValueError:  # an integer literal past int's digit limit
            raise DocumentError("document holds an integer with too many digits") from None


# the canonical encodings of the documents last recorded as inputs, keyed by
# their file text, least recently recorded first; at most _ENCODINGS_CAP
_ENCODINGS: dict = {}
_ENCODINGS_CAP = 64


def _encoding(doc, text: str) -> Encoded:
    """doc's canonical encoding, kept by its file text as the newest."""
    encoded = _ENCODINGS.pop(text, None) or Encoded(canonical_json(doc)[:-1])
    if len(_ENCODINGS) >= _ENCODINGS_CAP:
        del _ENCODINGS[next(iter(_ENCODINGS))]
    _ENCODINGS[text] = encoded
    return encoded


_DOCUMENTS = ("torus", "point", "points", "embedding", "domain", "codomain", "dual", "matrix")
_NOT_INPUTS = {"command", "run", "bounded", "json", "out"}  # registration and output


def _arg(*flags, **options):
    """The arguments of one add_argument call, for command() in _build_parser."""
    return flags, options


_BOUND = _arg("--bound", type=int, default=10)


def _run_command(args):
    """Load every document args names, then run its handler; returns
    (payload, inputs, exit_code), the inputs read from args afterwards: a
    document the handler left bound, by its kept encoding."""
    loaded = {}  # id -> (document, file text); held, so no other object takes the id

    def load(path):
        doc, text = _load_json(path)
        loaded[id(doc)] = doc, text
        return doc

    def recorded(value):
        if id(value) in loaded:
            return _encoding(*loaded[id(value)])
        return [recorded(v) for v in value] if isinstance(value, list) else value

    for key in _DOCUMENTS:
        path = getattr(args, key, None)
        if path is not None:
            setattr(args, key, [load(p) for p in path] if isinstance(path, list) else load(path))
    payload, code = args.run(args)
    return payload, {k: recorded(v) for k, v in vars(args).items() if k not in _NOT_INPUTS}, code


def _type(a):
    return {"type": list(torus_from_doc(a.torus).polarisation_type())}, EXIT_OK


def _kernel(a):
    T = torus_from_doc(a.torus)
    pts = T.polarising_kernel()
    return {
        "type": list(T.polarisation_type()),
        "order": prod(p.order for p in pts),
        "generators": [dict(point_to_doc(p), order=p.order) for p in pts],
    }, EXIT_OK


def _quotient(a):
    T = torus_from_doc(a.torus)
    qres = T.quotient(point_from_doc(a.point, T))
    return {
        "torus": torus_to_doc(qres.torus),
        "basis": fraction_matrix_doc(qres.basis),
        "type": list(qres.torus.polarisation_type()),
    }, EXIT_OK


def _complement(a):
    T = torus_from_doc(a.torus)
    gens = T.symplectic_complement([point_from_doc(d, T) for d in a.points])
    return {"generators": [dict(point_to_doc(p), order=p.order) for p in gens]}, EXIT_OK


def _dual(a):
    d = torus_from_doc(a.torus).dual()
    return {
        "torus": torus_to_doc(d.torus),
        "display_periods": scalar_matrix_doc(d.display.periods),
        "scalings": list(d.scalings),
        "permutation": list(d.permutation),
        "type": list(d.torus.polarisation_type()),
    }, EXIT_OK


def _sub(a):
    T = torus_from_doc(a.torus)
    gram_b, rtype = restricted_polarisation(T, embedding_from_doc(a.embedding, T))
    return {"gram": int_matrix_doc(gram_b), "type": list(rtype)}, EXIT_OK


def _idempotent(a):
    T = torus_from_doc(a.torus)
    data = idempotent(embedding_from_doc(a.embedding, T))
    return {
        "epsilon": fraction_matrix_doc(data.epsilon),
        "exponent": data.exponent,
        "norm": int_matrix_doc(data.norm),
        "complement_columns": int_matrix_doc(data.complement().columns),
    }, EXIT_OK


def _hom(a):
    gens = hom_module(torus_from_doc(a.domain), torus_from_doc(a.codomain))
    return {"rank": len(gens), "generators": [
        {"rational": int_matrix_doc(g.rational_rep),
         "analytic": [[str(x) for x in row] for row in g.analytic_rep]} for g in gens]}, EXIT_OK


def _isom_search(a):
    res = isom_search(torus_from_doc(a.domain), torus_from_doc(a.codomain),
                      bound=a.bound, polarised=a.polarised)
    if isinstance(res, Found):
        return {"found": True, "witness": int_matrix_doc(res.witness),
                "coefficients": list(res.coefficients), "tested": res.tested}, EXIT_OK
    if isinstance(res, NoHoms):
        return {"found": False, "reason": "no homomorphisms"}, EXIT_NO_HOMS
    return {"found": False, "bound": res.bound, "tested": res.tested}, EXIT_NOT_FOUND


def _pp_search(a):
    A = torus_from_doc(a.torus)
    if a.dual is None:
        Ahat = A.dual().torus
        a.dual = torus_to_doc(Ahat)  # the inputs record the dual computed
    else:
        Ahat = torus_from_doc(a.dual)
    fam = admissible_family(A, Ahat)
    res = pp_search(A, Ahat, bound=a.bound, family=fam)
    if isinstance(res, Found):
        return {"found": True, "family_rank": fam.rank, "witness": int_matrix_doc(res.witness.H),
                "coefficients": list(res.coefficients), "tested": res.tested}, EXIT_OK
    return {"found": False, "family_rank": fam.rank,
            "bound": res.bound, "tested": res.tested}, EXIT_NOT_FOUND


def _elliptic(a):
    if a.formal:
        verdict = formal_quotient_isomorphic(a.tau, a.n)
        return {"isomorphic": False, "certificate": verdict.certificate}, EXIT_OK
    tau = QuadNumber.parse(a.tau)
    return {
        "isomorphic": quotient_isomorphic(tau, a.n),
        "reduced": str(reduce_tau(tau).reduced),
        "reduced_quotient": str(reduce_tau(tau.divided_by(a.n)).reduced),
    }, EXIT_OK


def _degree(a):
    return {"degree": isogeny_degree(int_matrix_from_doc(a.matrix))}, EXIT_OK


def _obstruction(a):
    return obstruction_report(a.d), EXIT_OK


def _demo(a):
    out = a.out  # a directory, for the report and the demo's documents
    listing = a.list or a.demo is None
    if not listing and a.demo not in demo_list():
        raise DocumentError(f"unknown demo {a.demo!r}; available: {', '.join(demo_list())}")
    if out:  # made before either path returns: both write report.json into it
        os.makedirs(out, exist_ok=True)
        a.out = os.path.join(out, "report.json")
    if listing:  # inputs: {"list": true} alone
        for key in vars(a).keys() - _NOT_INPUTS:
            delattr(a, key)
        a.list = True
        return {"demos": demo_list()}, EXIT_OK
    del a.list
    res = run_demo(a.demo, n=a.n, type_=a.type, bound=a.bound, max_d=a.max_d)
    if out:
        for label, doc in res.documents.items():
            Path(out, f"{label}.json").write_text(canonical_json(doc), encoding="utf-8")
    return res.payload, EXIT_NOT_FOUND if res.bounded else EXIT_OK


def _build_parser() -> tuple:
    """The top-level parser, and its subcommands' parsers by name."""
    parser = _Parser(prog="avtk", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the canonical JSON report")
    common.add_argument("--out", help="also write the JSON report (demos: a directory)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, *arguments, bounded="bounded"):
        """Register subcommand name, run by run; an argument is a positional's
        name or _arg(...), and bounded is the verdict of exit code 3."""
        p = sub.add_parser(name, parents=[common], help=help)
        for flags, options in (((a,), {}) if isinstance(a, str) else a for a in arguments):
            p.add_argument(*flags, **options)
        p.set_defaults(run=run, bounded=bounded)

    command("type", _type, "polarisation type of a torus", "torus")
    command("kernel", _kernel, "generators of the polarising kernel", "torus")
    command("quotient", _quotient, "quotient by the cyclic group of a point", "torus", "point")
    command("complement", _complement, "symplectic complement of points inside the kernel",
            "torus", _arg("points", nargs="+"))
    command("dual", _dual, "dual torus in a standard frame", "torus")
    command("sub", _sub, "restricted polarisation of a subtorus", "torus", "embedding")
    command("idempotent", _idempotent, "symmetric idempotent and norm of a subtorus",
            "torus", "embedding")
    command("hom", _hom, "basis of the homomorphism module", "domain", "codomain")
    command("isom-search", _isom_search, "bounded isomorphism search", "domain", "codomain",
            _BOUND, _arg("--polarised", action="store_true",
                         help="require the pullback to preserve the forms"))
    command("pp-search", _pp_search, "bounded search for a principal polarisation", "torus",
            _arg("dual", nargs="?", help="model of the dual (default: computed with the dual op)"),
            _BOUND)
    command("elliptic", _elliptic, "is the curve isomorphic to its quotient by an order-n point",
            _arg("tau", help='period "(p+q*sqrt(-D))/r", or a name with --formal'),
            _arg("n", type=int),
            _arg("--formal", action="store_true",
                 help="treat tau as a formal period with no algebraic relations"))
    command("degree", _degree, "isogeny degree of an integer matrix", "matrix")
    command("obstruction", _obstruction, "is -1 a non-square modulo d", _arg("d", type=int))
    command("demo", _demo, "run a named worked example", _arg("demo", nargs="?", metavar="name"),
            _arg("--list", action="store_true", help="list demo names"), _arg("--n", type=int),
            _arg("--type"), _arg("--bound", type=int), _arg("--max-d", type=int),
            bounded="pass")
    return parser, sub.choices


@functools.cache
def _parser() -> tuple:
    """The parsers of this process, built on first use.

    Parsing leaves a parser unchanged and returns a fresh Namespace, so
    one set of parsers serves every main() call.
    """
    return _build_parser()


def _emit_human(payload, indent=""):
    for key, value in payload.items():
        if isinstance(value, list) and value and isinstance(value[0], list):
            print(f"{indent}{key}:")
            for row in value:
                print(f"{indent}  [" + ", ".join(str(x) for x in row) + "]")
        elif isinstance(value, dict):
            print(f"{indent}{key}:")
            _emit_human(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{indent}{key}:")
            for item in value:
                _emit_human(item, indent + "  ")
                print()
        else:
            print(f"{indent}{key}: {value}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _parser()
    if argv and argv[0] in commands:  # what the top-level parser would hand it
        args, extra = commands[argv[0]].parse_known_args(argv[1:])
        if extra:  # refused as the top-level parse_args refuses them
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    else:  # no subcommand named: the top-level usage and errors
        args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        payload, inputs, code = _run_command(args)
        elapsed = time.monotonic() - started
        verdict = args.bounded if code == EXIT_NOT_FOUND else "pass"
        report = Report(command=list(argv), inputs=inputs, payload=payload, verdict=verdict,
                        timing_seconds=elapsed)
        text = report.to_json() if args.json or args.out else None  # serialised once
        if args.out:  # before any output: a report that cannot be written is not shown
            Path(args.out).write_text(text, encoding="utf-8")
    except (ScalarParseError, DocumentError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"avtk: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # missing file, a directory, no permission
        print(f"avtk: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PreconditionError as exc:
        print(f"avtk: precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except AssertionError as exc:
        print(f"avtk: assertion failed: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    if args.json:
        sys.stdout.write(text)
    else:
        _emit_human(payload)
        print(f"verdict: {verdict}")
    return code


if __name__ == "__main__":
    sys.exit(main())
