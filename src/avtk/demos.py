"""A gallery of worked constructions exercising the library end to end.

Each demo builds a named configuration from scratch, asserts every fact
it is responsible for (types, golden matrices, search outcomes), and
returns a DemoResult carrying a payload for reporting plus the documents
of the tori it constructed.  Demo names are stable labels used by the
command line; parameters (dimension, type, bound) have defaults chosen
so the smallest interesting instance runs.

A demo that ends with an expected bounded-search negative sets
``bounded`` on its result; everything it asserted still held, but part
of the outcome is evidence up to a bound rather than a proof.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

from .documents import scalar_matrix_doc, torus_to_doc
from .elliptic import QuadNumber, formal_quotient_isomorphic, quotient_isomorphic, reduce_tau
from .errors import PreconditionError, check_int, quoted
from .homs import hom_module, idempotent, isom_search
from .intlinalg import constant_slices, det, mat_eq, matmul, period_identity_holds, transpose
from .ppsearch import (
    MAX_MODULUS,
    admissible_family,
    obstruction_report,
    pp_search,
)
from .scalars import GeneratorSet
from .torus import (
    PolarisedTorus,
    SubvarietyEmbedding,
    TorsionPoint,
    ambient_to_lattice,
    product,
    restricted_polarisation,
    standard_torus,
    subgroup_lattice,
)
from .verdicts import Found, NotFoundUpToBound


@dataclass
class DemoResult:
    name: str
    payload: dict
    bounded: bool = False
    documents: dict = field(default_factory=dict)


def _check(label, cond, checks):
    checks[label] = bool(cond)
    if not cond:
        raise AssertionError(f"demo check failed: {label}")


def _in_lattice(col):
    """Whether a column of ambient_to_lattice exists and is integral."""
    return col is not None and all(x.denominator == 1 for x in col)


def parse_type(text) -> tuple:
    if not isinstance(text, (tuple, list)):
        try:
            text = [int(p) for p in str(text).split(",")]
        except ValueError:
            raise PreconditionError("type must be comma-separated integers, e.g. 1,3; "
                                    f"got {quoted(text)}") from None
    if not text:
        raise PreconditionError("type must be positive integers, e.g. 1,3")
    for d in text:
        check_int("a type entry", d, 1)
    return tuple(text)


def _validate_quotient_type(dtype, n):
    if len(dtype) != n:
        raise PreconditionError(f"type needs {n} entries, got {len(dtype)}")
    if dtype[0] != 1:
        raise PreconditionError("quotient type must start with 1")
    for a, b in zip(dtype[1:], dtype[2:]):
        if b % a:
            raise PreconditionError(f"type entries must form a divisor chain, {a} does not divide {b}")
    if dtype[-1] < 2:
        raise PreconditionError("last type entry must exceed 1")


def scaled_curve(gens: GeneratorSet, name: str, d: int) -> PolarisedTorus:
    """Elliptic curve with lattice d*tau Z + d Z and a type (d) form."""
    return standard_torus(gens, [[d * gens.scalar(name)]], [d])


def typed_curve(gens: GeneratorSet, name: str, d: int) -> PolarisedTorus:
    """Elliptic curve with lattice tau Z + d Z and a type (d) form."""
    return standard_torus(gens, [[gens.scalar(name)]], [d])


def generic_variety(gens: GeneratorSet, names, D) -> PolarisedTorus:
    """[Z | diag(D)] with Z symmetric in the given generators.

    names is an upper-triangular grid: names[i][j] for j >= i.
    """
    k = len(D)
    Z = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            s = gens.scalar(names[i][j - i])
            Z[i][j] = s
            Z[j][i] = s
    return standard_torus(gens, Z, D)


def symmetric_names(k: int, stem: str = "b"):
    return [[f"{stem}_{i + 1}{j + 1}" for j in range(i, k)] for i in range(k)]


def quotient_display(gens: GeneratorSet, tau_name: str, left_B, dtype):
    """The quotient in the adapted bases, as a torus in a standard frame.

    The ambient basis is (e1 - en, e2, ..., en) and the lattice basis is
    (f1, ..., f_{n-1}, fn + f1, e1 - en, d2 e2, ..., dn en); the right
    block comes out diagonal (1, d2, ..., dn) and the left block P
    symmetric.  Returns standard_torus(gens, P, dtype).
    """
    n = len(dtype)
    dn = dtype[-1]
    tau = gens.scalar(tau_name)
    zero = gens.zero()
    P = [[zero] * n for _ in range(n)]
    P[0][0] = dn * tau
    P[n - 1][0] = P[n - 1][0] + dn * tau
    for j in range(1, n - 1):
        for i in range(1, n):
            P[i][j] = P[i][j] + left_B[i - 1][j - 1]
    P[0][n - 1] = dn * tau
    for i in range(1, n):
        P[i][n - 1] = P[i][n - 1] + left_B[i - 1][n - 2]
    P[n - 1][n - 1] = P[n - 1][n - 1] + dn * tau
    return standard_torus(gens, P, dtype)


def ambient_shift(n: int):
    """Row operation taking old ambient coordinates to the adapted ones."""
    S = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    S[n - 1][0] = 1
    return S


def _quotient_pipeline(gens, E, factors, dtype, checks, payload):
    """Shared spine: product, kernel point, quotient, kernel comparison."""
    n = len(dtype)
    dn = dtype[-1]
    prod = product([E] + factors)
    expected_product_type = tuple(sorted(list(dtype[1:]) + [dn]))
    _check("product type", prod.polarisation_type() == expected_product_type, checks)
    (coords,) = ambient_to_lattice(prod, [[1] + [0] * (n - 2) + [-1]])  # e_1 - e_n
    _check("kernel point is rational over the lattice", coords is not None, checks)
    point = TorsionPoint(coords)
    _check("kernel point order", point.order == dn, checks)
    qres = prod.quotient(point)
    A = qres.torus
    _check("quotient type", A.polarisation_type() == dtype, checks)
    _check("quotient degree", 1 / abs(det(subgroup_lattice([point], 2 * n))) == dn, checks)
    # a push-forward is a group map, so pushing the complement's generators
    # generates the pushed complement; equal subgroups have equal lattices
    pushed = [qres.push_point(x) for x in prod.symplectic_complement([point])]
    _check("quotient kernel equals pushed complement",
           subgroup_lattice(pushed, 2 * n) == subgroup_lattice(A.polarising_kernel(), 2 * n),
           checks)
    payload["product_type"] = list(expected_product_type)
    payload["quotient_type"] = list(dtype)
    return prod, A


def _display_replay(A, display, checks, payload):
    """The exact base change U from A to the display torus D.

    Column j of U holds the lattice coordinates in A of column j of D
    taken back through the ambient shift S; one ambient_to_lattice solves
    all 2n columns in one elimination.  With U unimodular, the
    identity S^-1 @ P_D == P_A @ U, checked by period_identity_holds as
    "display entrywise", makes D the torus A in another frame, so that
    "display span" follows; the form must then be carried to D's.
    """
    n = A.dim
    Sinv = ambient_shift(n)
    Sinv[n - 1][0] = -1
    cols = ambient_to_lattice(A, transpose(matmul(Sinv, display.periods)))
    for j, col in enumerate(cols):
        _check(f"display column {j} lies in the lattice", _in_lattice(col), checks)
    U = transpose([[int(x) for x in col] for col in cols])
    _check("base change unimodular", abs(det(U)) == 1, checks)
    _check("display entrywise",
           period_identity_holds(constant_slices(Sinv), U,
                                 display.period_slice, A.period_slice),
           checks)
    checks["display span"] = True
    gram_t = matmul(transpose(U), matmul(A.gram, U))
    _check("display frame is standard", mat_eq(gram_t, display.gram), checks)
    payload["display"] = scalar_matrix_doc(display.periods)
    payload["base_change"] = [list(r) for r in U]


def demo_ex_4_1(n: int = 2, type_=None, bound: int = 10) -> DemoResult:
    dtype = parse_type(type_) if type_ is not None else (1,) + (3,) * (n - 1)
    _validate_quotient_type(dtype, n)
    dn = dtype[-1]
    gens = GeneratorSet(("tau_E", "tau_F"))
    checks, payload = {}, {}
    E = scaled_curve(gens, "tau_E", dn)
    factors = [typed_curve(gens, "tau_F", d) for d in dtype[1:]]
    prod, A = _quotient_pipeline(gens, E, factors, dtype, checks, payload)

    tauF = gens.scalar("tau_F")
    left_B = [[(tauF if i == j else gens.zero()) for j in range(n - 1)] for i in range(n - 1)]
    display = quotient_display(gens, "tau_E", left_B, dtype)
    _display_replay(A, display, checks, payload)

    # the periods of E in coordinate 0, then those of each factor of B in its own
    periods = [(0, dn * gens.scalar("tau_E")), (0, gens.constant(dn))]
    for i, d in enumerate(dtype[1:], 1):
        periods += [(i, tauF), (i, gens.constant(d))]
    cols = ambient_to_lattice(A, [[x if k == i else gens.zero() for k in range(n)]
                                  for i, x in periods])
    _check("factor vector lies in the lattice", all(map(_in_lattice, cols)), checks)
    cols = [[int(x) for x in col] for col in cols]
    emb_E = SubvarietyEmbedding.from_spanning_vectors(A, cols[:2])
    emb_B = SubvarietyEmbedding.from_spanning_vectors(A, cols[2:])
    _check("curve restricted type", restricted_polarisation(A, emb_E)[1] == (dn,), checks)
    _check("complement restricted type",
           restricted_polarisation(A, emb_B)[1] == tuple(sorted(dtype[1:])), checks)
    data_E = idempotent(emb_E)
    _check("complementary subvariety", data_E.complement() == emb_B, checks)

    data_B = idempotent(emb_B)
    m = 2 * n
    _check("idempotents sum to identity",
           all(data_E.epsilon[i][j] + data_B.epsilon[i][j] == (1 if i == j else 0)
               for i in range(m) for j in range(m)), checks)
    eE, eB = data_E.exponent, data_B.exponent
    _check("norm identity",
           all(eE * eB * (1 if i == j else 0)
               == eB * data_E.norm[i][j] + eE * data_B.norm[i][j]
               for i in range(m) for j in range(m)), checks)
    payload["exponents"] = {"curve": eE, "complement": eB}

    _check("no maps between the factors", len(hom_module(E, factors[0])) == 0, checks)
    _check("curve endomorphisms", len(hom_module(E, E)) == 1, checks)
    return _self_dual_search("ex-4.1", display, bound, prod, A, checks, payload)


def _generic_quotient(n, type_, checks, payload):
    """The set-up of ex-4.2 and thm-3.2-generic: (gens, dtype, E, B, E x B,
    A), with B generic of type dtype[1:] and A the quotient of E x B."""
    dtype = parse_type(type_) if type_ is not None else (1,) + (3,) * (n - 1)
    _validate_quotient_type(dtype, n)
    names = symmetric_names(n - 1)
    gens = GeneratorSet(("tau_E",) + tuple(x for row in names for x in row))
    E = scaled_curve(gens, "tau_E", dtype[-1])
    B = generic_variety(gens, names, list(dtype[1:]))
    return (gens, dtype, E, B) + _quotient_pipeline(gens, E, [B], dtype, checks, payload)


def demo_ex_4_2(n: int = 2, type_=None, bound: int = 10) -> DemoResult:
    checks, payload = {}, {}
    gens, dtype, E, B, prod, A = _generic_quotient(n, type_, checks, payload)
    display = quotient_display(gens, "tau_E", B.left_block(), dtype)
    _display_replay(A, display, checks, payload)
    _check("no maps into the generic factor", len(hom_module(E, B)) == 0, checks)
    return _self_dual_search("ex-4.2", display, bound, prod, A, checks, payload)


def _self_dual_search(name, display, bound, prod, A, checks, payload):
    """The end of ex-4.1 and ex-4.2: the quotient A is not isomorphic to its dual.

    The dual and the isomorphism search run in the display frame, which
    the base-change check proved is the same torus as A.
    """
    dual_res = display.dual()
    search = isom_search(display, dual_res.torus, bound=bound)
    _check("self-dual search exhausted", isinstance(search, NotFoundUpToBound), checks)
    payload["isom_search"] = {"bound": bound, "tested": search.tested, "found": False}
    payload["checks"] = checks
    return DemoResult(
        name=name,
        payload=payload,
        bounded=True,
        documents={
            "product": torus_to_doc(prod),
            "quotient": torus_to_doc(A),
            "quotient-standard": torus_to_doc(display),
            "dual": torus_to_doc(dual_res.torus),
        },
    )


def demo_thm_3_2(n: int = 2, type_=None) -> DemoResult:
    checks, payload = {}, {}
    *_, prod, A = _generic_quotient(n, type_, checks, payload)
    payload["checks"] = checks
    return DemoResult(
        name="thm-3.2-generic",
        payload=payload,
        documents={"product": torus_to_doc(prod), "quotient": torus_to_doc(A)},
    )


def surface_pair(gens: GeneratorSet, d: int):
    """The generic surface S of type (1, d) in the generators a, b, c, and
    its dual in the display frame, S.dual().display, of type (d, 1)."""
    a, b, c = (gens.scalar(x) for x in ("a", "b", "c"))
    S = standard_torus(gens, [[a, b], [b, c]], [1, d])
    return S, S.dual().display


def demo_ex_5_3(bound: int = 25) -> DemoResult:
    gens = GeneratorSet(("a", "b", "c"))
    checks, payload = {}, {}
    a, b, c = (gens.scalar(x) for x in ("a", "b", "c"))
    S, Sd = surface_pair(gens, 3)
    golden_dual = [[3 * a, b, gens.constant(3), gens.zero()],
                   [b, c / 3, gens.zero(), gens.one()]]
    _check("dual display matrix", mat_eq(Sd.periods, golden_dual), checks)
    # the display frame of the dual, fed back through dual()
    _check("double dual returns the original", Sd.dual().display.periods == S.periods, checks)
    A = product([S, Sd])
    Ahat = product([Sd, S])
    payload["period_matrix"] = scalar_matrix_doc(A.periods)
    payload["dual_period_matrix"] = scalar_matrix_doc(Ahat.periods)
    search = isom_search(A, Ahat, bound=3)
    _check("dual is isomorphic (swap found)", isinstance(search, Found), checks)
    payload["isom_search"] = {
        "bound": 3,
        "tested": search.tested,
        "found": True,
        "witness": [list(r) for r in search.witness],
        "coefficients": list(search.coefficients),
    }
    fam = admissible_family(A, Ahat)
    _check("admissible family rank", fam.rank == 3, checks)
    pp = pp_search(A, Ahat, bound=bound, family=fam)
    _check("no principal polarisation up to bound", isinstance(pp, NotFoundUpToBound), checks)
    payload["pp_search"] = {"bound": bound, "tested": pp.tested, "found": False,
                            "family_rank": fam.rank}
    payload["checks"] = checks
    return DemoResult(
        name="ex-5.3",
        payload=payload,
        bounded=True,
        documents={
            "surface": torus_to_doc(S),
            "surface-dual": torus_to_doc(Sd),
            "product": torus_to_doc(A),
            "product-dual": torus_to_doc(Ahat),
        },
    )


def demo_lemma_5_4(bound: int = 25) -> DemoResult:
    gens = GeneratorSet(("a", "b", "c"))
    checks, payload = {}, {}
    S, Sd = surface_pair(gens, 3)
    A = product([S, Sd])
    Ahat = product([Sd, S])
    fam = admissible_family(A, Ahat)
    _check("family rank", fam.rank == 3, checks)
    for B in fam.basis:
        _check("zero pattern",
               B[0][1] == B[0][3] == B[1][2] == B[2][3] == 0, checks)
        _check("first diagonal pair", B[0][0] == 3 * B[1][1], checks)
        _check("second diagonal pair", B[3][3] == 3 * B[2][2], checks)
        _check("off-diagonal pair", B[0][2] == B[1][3], checks)
    payload["family"] = [[list(r) for r in B] for B in fam.basis]
    pp = pp_search(A, Ahat, bound=bound, family=fam)
    _check("search exhausted", isinstance(pp, NotFoundUpToBound), checks)
    payload["pp_search"] = {"bound": bound, "tested": pp.tested, "found": False,
                            "family_rank": fam.rank}
    mod3 = obstruction_report(3)
    _check("mod-3 obstruction", mod3["obstruction"], checks)
    _check("mod-3 squares", mod3["squares"] == [0, 1], checks)
    payload["obstruction"] = {
        "modulus": 3,
        "squares": mod3["squares"],
        "certificate": "h*h mod 3 is 0 or 1, never 2, so 3*k*m - h*h = 1 has no solutions",
    }
    payload["checks"] = checks
    return DemoResult(
        name="lemma-5.4",
        payload=payload,
        bounded=True,
        documents={"product": torus_to_doc(A), "product-dual": torus_to_doc(Ahat)},
    )


def demo_remark_3_3() -> DemoResult:
    checks, payload = {}, {}
    tau = QuadNumber.parse("sqrt(-2)")
    _check("order-2 quotient of sqrt(-2) is isomorphic", quotient_isomorphic(tau, 2), checks)
    half = tau.divided_by(2)
    inverted = tau.mobius(0, -1, 1, 0)
    _check("half period equals the inverted period", half == inverted, checks)
    payload["tau"] = str(tau)
    payload["tau_over_2"] = str(half)
    payload["reduced"] = str(reduce_tau(half).reduced)
    i = QuadNumber.parse("sqrt(-1)")
    _check("order-2 quotient of sqrt(-1) is not isomorphic",
           not quotient_isomorphic(i, 2), checks)
    formal = formal_quotient_isomorphic("tau", 2)
    _check("formal period never isomorphic", not formal.isomorphic, checks)
    payload["formal_certificate"] = formal.certificate
    payload["checks"] = checks
    return DemoResult(name="remark-3.3", payload=payload)


def demo_obstruction_table(max_d: int = 20) -> DemoResult:
    checks, payload = {}, {}
    if not 2 <= max_d <= MAX_MODULUS:
        raise PreconditionError(f"table needs max_d between 2 and {MAX_MODULUS}")
    table = [obstruction_report(d) for d in range(2, max_d + 1)]
    by_d = {row["d"]: row["obstruction"] for row in table}
    if max_d >= 3:
        _check("d = 3 obstructed", by_d[3] is True, checks)
    if max_d >= 5:
        _check("d = 5 unobstructed", by_d[5] is False, checks)
    payload["table"] = table
    payload["checks"] = checks
    return DemoResult(name="obstruction-table", payload=payload)


DEMOS = {
    "ex-4.1": demo_ex_4_1,
    "ex-4.2": demo_ex_4_2,
    "ex-5.3": demo_ex_5_3,
    "lemma-5.4": demo_lemma_5_4,
    "remark-3.3": demo_remark_3_3,
    "thm-3.2-generic": demo_thm_3_2,
    "obstruction-table": demo_obstruction_table,
}


def demo_list():
    return sorted(DEMOS)


# run_demo's integer options: the name a refusal gives each, and its least value
_INT_OPTIONS = {"n": ("--n", 2), "bound": ("search bound", 1), "max_d": ("--max-d", 2)}


def run_demo(name: str, n=None, type_=None, bound=None, max_d=None) -> DemoResult:
    """Run a demo with the options given (None: the demo's default).  It takes
    the parameters of its function in DEMOS: any other option, or a bad int
    (_INT_OPTIONS), is refused before it starts.  A type alone sets n."""
    if name not in DEMOS:
        raise PreconditionError(f"unknown demo {name!r}; available: {', '.join(demo_list())}")
    demo = DEMOS[name]
    takes = inspect.signature(demo).parameters
    options = {"n": n, "type_": type_, "bound": bound, "max_d": max_d}
    kwargs = {key: value for key, value in options.items() if value is not None}
    for key, value in kwargs.items():
        if key not in takes:
            flag = "--" + key.rstrip("_").replace("_", "-")
            raise PreconditionError(f"demo {name} takes no {flag} option")
        if key in _INT_OPTIONS:
            what, least = _INT_OPTIONS[key]
            check_int(what, value, least)
    if type_ is not None and n is None:
        kwargs["n"] = len(parse_type(type_))
    return demo(**kwargs)
