"""Command line front end.

Subcommands load torus/point/embedding documents, run one library
operation, and emit a report either as human-readable lines or, with
--json, as canonical JSON suitable for golden-file comparison.  Exit
codes encode outcomes: 0 success, 1 parse or usage error, 2 precondition
violation, 3 a bounded search that found nothing (also used by demos
whose expected outcome is a bounded negative), 4 an isomorphism search
with no homomorphisms at all, 5 a failed assertion.

The bounded searches run in the calling process.  The argument parser
is built by the first main() call and reused by every later call in the
same process, so an in-process call pays only for its own command;
importing this module builds no parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from math import prod

from .demos import demo_list, run_demo
from .documents import (
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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise DocumentError("document is nested too deeply") from None
        except json.JSONDecodeError:
            raise
        except ValueError:  # an integer literal past int's digit limit
            raise DocumentError("document holds an integer with too many digits") from None


def _load_torus(path: str):
    doc = _load_json(path)
    return torus_from_doc(doc), doc


def _build_parser() -> _Parser:
    parser = _Parser(prog="avtk", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the canonical JSON report")
    common.add_argument("--out", help="also write the JSON report (demos: a directory)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("type", parents=[common], help="polarisation type of a torus")
    p.add_argument("torus")

    p = sub.add_parser("kernel", parents=[common], help="generators of the polarising kernel")
    p.add_argument("torus")

    p = sub.add_parser("quotient", parents=[common], help="quotient by the cyclic group of a point")
    p.add_argument("torus")
    p.add_argument("point")

    p = sub.add_parser("complement", parents=[common],
                       help="symplectic complement of points inside the kernel")
    p.add_argument("torus")
    p.add_argument("points", nargs="+")

    p = sub.add_parser("dual", parents=[common], help="dual torus in a standard frame")
    p.add_argument("torus")

    p = sub.add_parser("sub", parents=[common], help="restricted polarisation of a subtorus")
    p.add_argument("torus")
    p.add_argument("embedding")

    p = sub.add_parser("idempotent", parents=[common],
                       help="symmetric idempotent and norm of a subtorus")
    p.add_argument("torus")
    p.add_argument("embedding")

    p = sub.add_parser("hom", parents=[common], help="basis of the homomorphism module")
    p.add_argument("domain")
    p.add_argument("codomain")

    p = sub.add_parser("isom-search", parents=[common], help="bounded isomorphism search")
    p.add_argument("domain")
    p.add_argument("codomain")
    p.add_argument("--bound", type=int, default=10)
    p.add_argument("--polarised", action="store_true",
                   help="require the pullback to preserve the forms")

    p = sub.add_parser("pp-search", parents=[common],
                       help="bounded search for a principal polarisation")
    p.add_argument("torus")
    p.add_argument("dual", nargs="?",
                   help="model of the dual (default: computed with the dual op)")
    p.add_argument("--bound", type=int, default=10)

    p = sub.add_parser("elliptic", parents=[common],
                       help="is the curve isomorphic to its quotient by an order-n point")
    p.add_argument("tau", help='period "(p+q*sqrt(-D))/r", or a name with --formal')
    p.add_argument("n", type=int)
    p.add_argument("--formal", action="store_true",
                   help="treat tau as a formal period with no algebraic relations")

    p = sub.add_parser("degree", parents=[common], help="isogeny degree of an integer matrix")
    p.add_argument("matrix")

    p = sub.add_parser("obstruction", parents=[common],
                       help="is -1 a non-square modulo d")
    p.add_argument("d", type=int)

    p = sub.add_parser("demo", parents=[common], help="run a named worked example")
    p.add_argument("name", nargs="?")
    p.add_argument("--list", action="store_true", help="list demo names")
    p.add_argument("--n", type=int)
    p.add_argument("--type", dest="type_")
    p.add_argument("--bound", type=int)
    p.add_argument("--max-d", type=int)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser of this process, built on first use.

    parse_args leaves the parser unchanged and returns a fresh Namespace,
    so one parser serves every main() call.
    """
    return _build_parser()


def _run_command(args):
    """Dispatch; returns (payload, inputs, exit_code)."""
    cmd = args.command

    if cmd == "type":
        T, doc = _load_torus(args.torus)
        return {"type": list(T.polarisation_type())}, {"torus": doc}, EXIT_OK

    if cmd == "kernel":
        T, doc = _load_torus(args.torus)
        pts = T.polarising_kernel()
        # the generators' orders are the type's entries above 1, each twice,
        # so the type needs no second Smith form of the gram
        divisors = [p.order for p in pts[::2]]
        payload = {
            "type": [1] * (T.dim - len(divisors)) + divisors,
            "order": prod(p.order for p in pts),
            "generators": [dict(point_to_doc(p), order=p.order) for p in pts],
        }
        return payload, {"torus": doc}, EXIT_OK

    if cmd == "quotient":
        T, doc = _load_torus(args.torus)
        pdoc = _load_json(args.point)
        point = point_from_doc(pdoc, T)
        qres = T.quotient(point)
        payload = {
            "torus": torus_to_doc(qres.torus),
            "basis": fraction_matrix_doc(qres.basis),
            "type": list(qres.torus.polarisation_type()),
        }
        return payload, {"torus": doc, "point": pdoc}, EXIT_OK

    if cmd == "complement":
        T, doc = _load_torus(args.torus)
        pdocs = [_load_json(p) for p in args.points]
        points = [point_from_doc(d, T) for d in pdocs]
        gens = T.symplectic_complement(points)
        payload = {"generators": [dict(point_to_doc(p), order=p.order) for p in gens]}
        return payload, {"torus": doc, "points": pdocs}, EXIT_OK

    if cmd == "dual":
        T, doc = _load_torus(args.torus)
        d = T.dual()
        payload = {
            "torus": torus_to_doc(d.torus),
            "display_periods": scalar_matrix_doc(d.display.periods),
            "scalings": list(d.scalings),
            "permutation": list(d.permutation),
            "type": list(d.torus.polarisation_type()),
        }
        return payload, {"torus": doc}, EXIT_OK

    if cmd == "sub":
        T, doc = _load_torus(args.torus)
        edoc = _load_json(args.embedding)
        emb = embedding_from_doc(edoc, T)
        gram_b, rtype = restricted_polarisation(T, emb)
        payload = {"gram": int_matrix_doc(gram_b), "type": list(rtype)}
        return payload, {"torus": doc, "embedding": edoc}, EXIT_OK

    if cmd == "idempotent":
        T, doc = _load_torus(args.torus)
        edoc = _load_json(args.embedding)
        emb = embedding_from_doc(edoc, T)
        data = idempotent(emb)
        comp = data.complement()
        payload = {
            "epsilon": fraction_matrix_doc(data.epsilon),
            "exponent": data.exponent,
            "norm": int_matrix_doc(data.norm),
            "complement_columns": int_matrix_doc(comp.columns),
        }
        return payload, {"torus": doc, "embedding": edoc}, EXIT_OK

    if cmd == "hom":
        X, xdoc = _load_torus(args.domain)
        Y, ydoc = _load_torus(args.codomain)
        gens = hom_module(X, Y)
        payload = {
            "rank": len(gens),
            "generators": [
                {
                    "rational": int_matrix_doc(g.rational_rep),
                    "analytic": [[str(x) for x in row] for row in g.analytic_rep],
                }
                for g in gens
            ],
        }
        return payload, {"domain": xdoc, "codomain": ydoc}, EXIT_OK

    if cmd == "isom-search":
        X, xdoc = _load_torus(args.domain)
        Y, ydoc = _load_torus(args.codomain)
        res = isom_search(X, Y, bound=args.bound, polarised=args.polarised)
        inputs = {"domain": xdoc, "codomain": ydoc, "bound": args.bound,
                  "polarised": args.polarised}
        if isinstance(res, Found):
            payload = {
                "found": True,
                "witness": int_matrix_doc(res.witness),
                "coefficients": list(res.coefficients),
                "tested": res.tested,
            }
            return payload, inputs, EXIT_OK
        if isinstance(res, NoHoms):
            return {"found": False, "reason": "no homomorphisms"}, inputs, EXIT_NO_HOMS
        payload = {"found": False, "bound": res.bound, "tested": res.tested}
        return payload, inputs, EXIT_NOT_FOUND

    if cmd == "pp-search":
        A, adoc = _load_torus(args.torus)
        if args.dual:
            Ahat, hdoc = _load_torus(args.dual)
        else:
            Ahat = A.dual().torus
            hdoc = torus_to_doc(Ahat)
        fam = admissible_family(A, Ahat)
        res = pp_search(A, Ahat, bound=args.bound, family=fam)
        inputs = {"torus": adoc, "dual": hdoc, "bound": args.bound}
        if isinstance(res, Found):
            payload = {
                "found": True,
                "family_rank": fam.rank,
                "witness": int_matrix_doc(res.witness.H),
                "coefficients": list(res.coefficients),
                "tested": res.tested,
            }
            return payload, inputs, EXIT_OK
        payload = {"found": False, "family_rank": fam.rank,
                   "bound": res.bound, "tested": res.tested}
        return payload, inputs, EXIT_NOT_FOUND

    if cmd == "elliptic":
        if args.formal:
            verdict = formal_quotient_isomorphic(args.tau, args.n)
            payload = {"isomorphic": False, "certificate": verdict.certificate}
            return payload, {"tau": args.tau, "n": args.n, "formal": True}, EXIT_OK
        tau = QuadNumber.parse(args.tau)
        iso = quotient_isomorphic(tau, args.n)
        payload = {
            "isomorphic": iso,
            "reduced": str(reduce_tau(tau).reduced),
            "reduced_quotient": str(reduce_tau(tau.divided_by(args.n)).reduced),
        }
        return payload, {"tau": args.tau, "n": args.n, "formal": False}, EXIT_OK

    if cmd == "degree":
        M = _load_json(args.matrix)
        payload = {"degree": isogeny_degree(int_matrix_from_doc(M))}
        return payload, {"matrix": M}, EXIT_OK

    if cmd == "obstruction":
        return obstruction_report(args.d), {"d": args.d}, EXIT_OK

    if cmd == "demo":
        if args.list or args.name is None:
            return {"demos": demo_list()}, {"list": True}, EXIT_OK
        if args.name not in demo_list():
            raise DocumentError(
                f"unknown demo {args.name!r}; available: {', '.join(demo_list())}"
            )
        res = run_demo(args.name, n=args.n, type_=args.type_, bound=args.bound,
                       max_d=args.max_d)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            for label, doc in res.documents.items():
                path = os.path.join(args.out, f"{label}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(canonical_json(doc))
        inputs = {"demo": args.name, "n": args.n, "type": args.type_,
                  "bound": args.bound, "max_d": args.max_d}
        return res.payload, inputs, EXIT_NOT_FOUND if res.bounded else EXIT_OK

    raise AssertionError(f"unhandled command {cmd!r}")


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
    args = _parser().parse_args(argv)
    started = time.monotonic()
    try:
        payload, inputs, code = _run_command(args)
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
    elapsed = time.monotonic() - started
    verdict = {EXIT_OK: "pass", EXIT_NOT_FOUND: "bounded", EXIT_NO_HOMS: "pass"}[code]
    if args.command == "demo" and code == EXIT_NOT_FOUND:
        verdict = "pass"  # the bounded outcome is what the demo expects
    report = Report(
        command=list(argv) if argv is not None else sys.argv[1:],
        inputs=inputs,
        payload=payload,
        verdict=verdict,
        timing_seconds=elapsed,
    )
    text = report.to_json() if args.json or args.out else None  # serialised once
    if args.json:
        sys.stdout.write(text)
    else:
        _emit_human(payload)
        print(f"verdict: {verdict}")
    if args.out:
        path = os.path.join(args.out, "report.json") if args.command == "demo" else args.out
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
