"""The seeded workloads: one closed loop, one caller, queries back to back.

Every workload draws its parameters from the seed only among choices of
equal cost, shuffles its query order, and hands avtk nothing but the
generated inputs.  A query is run by a thunk that returns a comparable
summary of avtk's answer; its check compares that summary with facts from
``oracle`` and, after the first pass, with the first pass's summary, so
every pass must reproduce the same answers (and a 2-worker search the
sequential one).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import shutil
import sys
from fractions import Fraction
from types import SimpleNamespace

import oracle

MODULES = ("scalars", "intlinalg", "torus", "homs", "ppsearch", "parallel", "elliptic",
           "documents", "demos", "cli", "verdicts")


def import_avtk():
    """A fresh import of avtk (every module executed again) as a namespace.

    Workload code looks functions up on these modules at call time, so a
    tracer that patches the modules sees every call.
    """
    for name in [k for k in sys.modules if k == "avtk" or k.startswith("avtk.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"avtk.{m}") for m in MODULES})


class Query:
    __slots__ = ("qid", "run", "check", "candidates")

    def __init__(self, qid, run, check, candidates=False):
        self.qid = qid
        self.run = run  # () -> summary
        self.check = check  # summary -> error text or None
        self.candidates = candidates  # summary[1] counts search candidates


def to_scalar(gens, poly):
    out = gens.zero()
    for mono, coeff in poly.items():
        term = gens.constant(coeff)
        for name, e in zip(gens.names, mono):
            if e:
                term = term * gens.scalar(name) ** e
        out = out + term
    return out


def to_periods(gens, P):
    return [[to_scalar(gens, p) for p in row] for row in P]


# -- search: the two bounded enumerations --------------------------------------

# -1 is not a square mod d: nothing to find.  d = 3 (lemma 5.4) is left out:
# it reaches about 5% fewer determinants than 7 or 11, so it would not cost
# the same as the other draws.
EXHAUSTIVE_D = (7, 11)
# -1 is a square mod 5: a witness at candidate 210.  d = 2 is not drawn as
# well: with 2 workers the slab after the hit still runs to its end, and
# for d = 2 that costs 31 ms where d = 5 costs 58 ms.
EARLY_HIT_D = 5
# Every query is short (at most about 0.1 s on a quiet core), so the
# machine's speed changes little within one call and the calibrations
# around it measure the speed the call met; see run.py.
PP_BOUND = 6
EX41_BOUND = 2
EX53_BOUND = 3
EX53_TESTED = 57  # the swap is the 57th coefficient vector in enumeration order


def search_summary(res):
    kind = type(res).__name__
    witness = getattr(res, "witness", None)
    if witness is not None:
        witness = tuple(tuple(r) for r in getattr(witness, "H", witness))
    return (kind, getattr(res, "tested", 0), tuple(getattr(res, "coefficients", ())), witness)


def surface_pair(av, gens, d):
    """avtk tori for S x S^ and S^ x S, with the oracle's own periods."""
    S = av.torus.PolarisedTorus(gens, to_periods(gens, oracle.surface_periods(d)),
                                av.torus.standard_gram([1, d]))
    Sd = av.torus.PolarisedTorus(gens, to_periods(gens, oracle.dual_surface_periods(d)),
                                 av.torus.standard_gram([d, 1]))
    own = (oracle.product_periods([oracle.surface_periods(d), oracle.dual_surface_periods(d)]),
           oracle.product_periods([oracle.dual_surface_periods(d), oracle.surface_periods(d)]))
    return av.torus.product([S, Sd]), av.torus.product([Sd, S]), own


def expect(cond, message):
    return None if cond else message


def search_setup(av, rng, work):
    d_exh = rng.choice(EXHAUSTIVE_D)
    d_hit = EARLY_HIT_D
    gens = av.scalars.GeneratorSet(("a", "b", "c"))
    A_exh, B_exh, _ = surface_pair(av, gens, d_exh)
    A_hit, B_hit, (PA_hit, PB_hit) = surface_pair(av, gens, d_hit)
    # The families are built once here, so a pp_search query is enumeration
    # only; building them is what the `homs` workload times.
    fam_exh = av.ppsearch.admissible_family(A_exh, B_exh)
    fam_hit = av.ppsearch.admissible_family(A_hit, B_hit)
    A_53, B_53, (PA_53, PB_53) = surface_pair(av, gens, 3)
    ex41 = av.demos.run_demo("ex-4.1", n=3, bound=1)
    X41 = av.documents.torus_from_doc(ex41.documents["quotient-standard"])
    Y41 = av.documents.torus_from_doc(ex41.documents["dual"])
    full = (2 * PP_BOUND + 1) ** 3  # the admissible family of S x S^ has rank 3

    def check_exhaustive(s):
        if oracle.minus_one_is_square(d_exh):
            return f"-1 is a square mod {d_exh}"
        return (expect(s[0] == "NotFoundUpToBound", f"pp d={d_exh}: {s[0]}, -1 is not a square")
                or expect(s[1] == full, f"pp d={d_exh}: tested {s[1]} != {full}"))

    def check_hit(s):
        if s[0] != "Found" or not oracle.minus_one_is_square(d_hit):
            return f"pp d={d_hit}: {s[0]}"
        return (expect(0 < s[1] <= full, f"pp d={d_hit}: tested {s[1]}")
                or oracle.principal_polarisation_error(s[3], PA_hit, PB_hit))

    def check_ex41(s):
        full41 = (2 * EX41_BOUND + 1) ** 5  # End(E x F^2) has rank 1 + 4
        return (expect(s[0] == "NotFoundUpToBound", f"ex-4.1 isom: {s[0]}")
                or expect(s[1] == full41, f"ex-4.1 isom: tested {s[1]} != {full41}"))

    def check_ex53(s):
        if s[0] != "Found" or s[1] != EX53_TESTED:
            return f"ex-5.3 isom: {s[0]} at {s[1]}, expected Found at {EX53_TESTED}"
        return oracle.isomorphism_error(s[3], PA_53, PB_53)

    queries = [
        Query(f"pp_search d={d_exh} bound={PP_BOUND}",
              lambda: search_summary(av.ppsearch.pp_search(
                  A_exh, B_exh, bound=PP_BOUND, family=fam_exh)),
              check_exhaustive, candidates=True),
        Query(f"pp_search d={d_hit} bound={PP_BOUND}",
              lambda: search_summary(av.ppsearch.pp_search(
                  A_hit, B_hit, bound=PP_BOUND, family=fam_hit)),
              check_hit, candidates=True),
        Query(f"isom_search ex-4.1 n=3 bound={EX41_BOUND}",
              lambda: search_summary(av.homs.isom_search(X41, Y41, bound=EX41_BOUND)),
              check_ex41, candidates=True),
        Query(f"isom_search ex-5.3 bound={EX53_BOUND}",
              lambda: search_summary(av.homs.isom_search(A_53, B_53, bound=EX53_BOUND)),
              check_ex53, candidates=True),
    ]
    rng.shuffle(queries)
    return {"d_exhaustive": d_exh, "d_early_hit": d_hit}, queries


# -- homs: symbolic flattening and integer kernels, no enumeration -------------

HOMS_D = (3, 5, 7)
# Four factors (dims 8) is left out: each of its two calls takes about 1 s,
# long enough for the machine's speed to change within the call, so the
# calibrations around it would not measure the speed it met.
HOMS_FACTORS = (2, 3)


def homs_setup(av, rng, work):
    d = rng.choice(HOMS_D)
    gens = av.scalars.GeneratorSet(("a", "b", "c"))
    S = av.torus.PolarisedTorus(gens, to_periods(gens, oracle.surface_periods(d)),
                                av.torus.standard_gram([1, d]))
    Sd = av.torus.PolarisedTorus(gens, to_periods(gens, oracle.dual_surface_periods(d)),
                                 av.torus.standard_gram([d, 1]))
    queries = []
    for k in HOMS_FACTORS:
        A = av.torus.product([(S, Sd)[i % 2] for i in range(k)])
        B = av.torus.product([(Sd, S)[i % 2] for i in range(k)])

        def hom(A=A, B=B):
            return tuple(g.rational_rep for g in av.homs.hom_module(A, B))

        def family(A=A, B=B):
            return tuple(av.ppsearch.admissible_family(A, B).basis)

        # every factor is isogenous to every other and End(S) = Z
        queries.append(Query(f"hom_module k={k}", hom,
                             lambda s, k=k: expect(len(s) == k * k,
                                                   f"Hom rank {len(s)} != {k * k}")))
        queries.append(Query(
            f"admissible_family k={k}", family,
            lambda s, k=k: expect(len(s) == k * (k + 1) // 2,
                                  f"family rank {len(s)} != {k * (k + 1) // 2}")
            or expect(all(H[i][j] == H[j][i] for H in s for i in range(len(H))
                          for j in range(i)), "family member not symmetric")))
    rng.shuffle(queries)
    return {"d": d}, queries


# -- session: demos and short CLI queries on the documents they write ----------

# (label, argv, expected exit code).  thm-3.2-generic at n=4 is left out: it
# is one 2-3 s call, long enough for the machine's speed to change within
# the call, so the calibrations around it would not measure the speed it met.
SESSION_DEMOS = (
    ("thm3", ["demo", "thm-3.2-generic", "--n", "3"], 0),
    ("ex42", ["demo", "ex-4.2", "--n", "3"], 3),  # its self-dual search is bounded
)
# documents the demos write, with the polarisation type their construction gives
SESSION_DOCS = {
    "thm3/product": (3, 3, 3), "thm3/quotient": (1, 3, 3),
    "ex42/product": (3, 3, 3), "ex42/quotient": (1, 3, 3),
    "ex42/quotient-standard": (1, 3, 3), "ex42/dual": (1, 1, 3),
}
STANDARD_DOCS = ("thm3/product", "ex42/product", "ex42/quotient-standard", "ex42/dual")
PRODUCT_DOCS = ("thm3/product", "ex42/product")  # curve E times a factor B
QUERIES_PER_KIND = 10
TAUS = ((0, 1, 1, -2), (0, 1, 1, -1), (0, 1, 1, -3), (1, 1, 2, -7), (0, 2, 1, -2),
        (1, 1, 2, -15), (0, 1, 1, -6), (1, 1, 2, -3), (0, 1, 1, -5), (1, 1, 2, -11))
OBSTRUCTION_D = range(100, 200)


def run_cli(av, argv):
    """avtk.cli.main in-process: (exit code, report without timing, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = av.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    report = None
    if out.getvalue().strip():
        report = json.loads(out.getvalue())
        report.pop("timing_seconds", None)
    return code, report, err.getvalue().strip()


def _cycle(items, count):
    return [items[i % len(items)] for i in range(count)]


def dual_type(dtype):
    c = min(dtype) * max(dtype)
    return tuple(sorted(c // d for d in dtype))


def session_setup(av, rng, work):
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    def path(name):
        return os.path.join(work, name)

    def write(name, obj):
        with open(path(name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path(name)

    demo_queries = []
    for label, argv, code in SESSION_DEMOS:
        full = argv + ["--out", path(label), "--json"]
        demo_queries.append((label, full, code))
        got = run_cli(av, full)  # writes the documents the queries read
        if got[0] != code:
            raise RuntimeError(f"setup: {' '.join(argv)} exited {got[0]}: {got[2]}")

    docs = {}
    for name in SESSION_DOCS:
        with open(path(name + ".json"), encoding="utf-8") as fh:
            docs[name] = json.load(fh)

    def kernel_point(name):
        """A nonzero point of the polarising kernel: gram^-1 Z^m / Z^m."""
        cols = list(zip(*oracle.inverse(docs[name]["gram"])))
        while True:
            coeffs = [rng.randrange(3) for _ in cols]
            x = [sum(c * col[i] for c, col in zip(coeffs, cols)) % 1 for i in range(len(cols))]
            if any(x):
                return x

    def point_doc(coords):
        return {"coords": [str(Fraction(v)) for v in coords], "basis": "lattice"}

    def factor_columns(name, factor):
        n = docs[name]["dim"]
        idx = [0, n] if factor == "E" else [i for i in range(1, 2 * n) if i != n]
        return [[int(i == j) for j in idx] for i in range(2 * n)]

    specs = []  # (kind, argv, check)
    for i, name in enumerate(_cycle(list(SESSION_DOCS), QUERIES_PER_KIND)):
        t = SESSION_DOCS[name]
        order = 1
        for v in t:
            order *= v * v
        specs.append(("type", ["type", path(name + ".json")],
                      lambda p, t=t: expect(tuple(p["type"]) == t, f"type {p['type']} != {t}")))
        specs.append(("kernel", ["kernel", path(name + ".json")],
                      lambda p, t=t, order=order: expect(
                          p["order"] == order and len(p["generators"]) == 2 * sum(v > 1 for v in t),
                          f"kernel order {p['order']} != {order}")))
        x = kernel_point(name)
        k = oracle.point_order(x)
        pdoc = write(f"point-q{i}.json", point_doc(x))
        target = order // (k * k)
        specs.append(("quotient", ["quotient", path(name + ".json"), pdoc],
                      lambda p, target=target: expect(
                          _product(p["type"]) ** 2 == target,
                          f"quotient type {p['type']} has degree != {target}")))
        pts = [kernel_point(name) for _ in range(2)]
        pdocs = [write(f"point-c{i}-{j}.json", point_doc(y)) for j, y in enumerate(pts)]
        comp = order // oracle.subgroup_order(pts)
        specs.append(("complement", ["complement", path(name + ".json")] + pdocs,
                      lambda p, comp=comp: expect(
                          _product([g["order"] for g in p["generators"]]) == comp,
                          f"complement order != {comp}")))
    for name in _cycle(list(STANDARD_DOCS), QUERIES_PER_KIND):
        want = dual_type(SESSION_DOCS[name])
        specs.append(("dual", ["dual", path(name + ".json")],
                      lambda p, want=want: expect(tuple(p["type"]) == want,
                                                  f"dual type {p['type']} != {want}")))
    for i, (name, factor) in enumerate(_cycle([(d, f) for d in PRODUCT_DOCS for f in "EB"],
                                              QUERIES_PER_KIND)):
        J = factor_columns(name, factor)
        edoc = write(f"embedding-{i}.json", {"columns": J})
        rtype = (3,) if factor == "E" else SESSION_DOCS[name][1:]
        gram = oracle.matmul(oracle.matmul([list(r) for r in zip(*J)], docs[name]["gram"]), J)
        specs.append(("sub", ["sub", path(name + ".json"), edoc],
                      lambda p, rtype=rtype, gram=gram: expect(
                          tuple(p["type"]) == rtype and p["gram"] == gram,
                          f"restricted type {p['type']} != {rtype}")))
        specs.append(("idempotent", ["idempotent", path(name + ".json"), edoc],
                      lambda p, rtype=rtype, J=J: _idempotent_error(p, rtype[-1], J)))
    for i in range(QUERIES_PER_KIND):
        n = rng.randrange(2, 6)
        if i < 3:
            specs.append(("elliptic", ["elliptic", "--formal", "tau", str(n)],
                          lambda p: expect(p["isomorphic"] is False, "formal period isomorphic")))
            continue
        p_, q, r, D = rng.choice(TAUS)
        iso = oracle.quotient_isomorphic(p_, q, r, D, n)
        specs.append(("elliptic", ["elliptic", f"({p_}+{q}*sqrt({D}))/{r}", str(n)],
                      lambda p, iso=iso: expect(p["isomorphic"] is iso,
                                                f"isomorphic {p['isomorphic']} != {iso}")))
    for i in range(QUERIES_PER_KIND):
        d = rng.choice(OBSTRUCTION_D)
        want = (not oracle.minus_one_is_square(d), oracle.square_residues(d))
        specs.append(("obstruction", ["obstruction", str(d)],
                      lambda p, want=want: expect((p["obstruction"], p["squares"]) == want,
                                                  "obstruction table differs")))
    for i in range(QUERIES_PER_KIND):
        while True:
            M = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
            deg = abs(oracle.det(M))
            if deg:
                break
        mdoc = write(f"matrix-{i}.json", M)
        specs.append(("degree", ["degree", mdoc],
                      lambda p, deg=deg: expect(p["degree"] == deg,
                                                f"degree {p['degree']} != {deg}")))
    rng.shuffle(specs)

    queries = []
    for label, argv, code in demo_queries:
        queries.append(Query(f"demo {label}", lambda argv=argv: run_cli(av, argv)[:2],
                             lambda s, code=code: _cli_error(s, code, _demo_error)))
    for i, (kind, argv, check) in enumerate(specs):
        argv = argv + ["--json"]
        queries.append(Query(f"{kind} #{i}", lambda argv=argv: run_cli(av, argv)[:2],
                             lambda s, check=check: _cli_error(s, 0, check)))
    return {"queries": len(queries), "kinds": sorted({k for k, _, _ in specs})}, queries


def _product(xs):
    out = 1
    for x in xs:
        out *= x
    return out


def _demo_error(payload):
    bad = [k for k, v in payload.get("checks", {}).items() if v is not True]
    return expect(payload.get("checks") and not bad, f"demo checks failed: {bad}")


def _idempotent_error(p, exponent, J):
    eps = [[Fraction(x) for x in row] for row in p["epsilon"]]
    if oracle.matmul(eps, eps) != eps:
        return "epsilon is not idempotent"
    if oracle.matmul(eps, J) != J:
        return "epsilon does not fix the subtorus"
    if p["exponent"] != exponent or p["norm"] != [[exponent * x for x in row] for row in eps]:
        return f"norm is not {exponent} * epsilon"
    return None


def _cli_error(summary, code, check):
    got, report = summary
    if got != code:
        return f"exit code {got} != {code}"
    if report is None:
        return "no JSON report"
    return check(report["payload"])


WORKLOADS = {
    "search": SimpleNamespace(threads=1, setup=search_setup),
    "search-2w": SimpleNamespace(threads=2, setup=search_setup),
    "homs": SimpleNamespace(threads=1, setup=homs_setup),
    "session": SimpleNamespace(threads=1, setup=session_setup),
}
