"""End-to-end acceptance checklist.

Each test runs one acceptance criterion under a wall-clock budget and
prints a single ``criterion NN <label>: PASS/FAIL`` line, so the suite
output doubles as a checklist.  Every computation is exact; the budgets
only guard against pathological slowdowns.
"""

import random
import time
from fractions import Fraction
from itertools import product as iter_product

import pytest

from avtk.demos import run_demo
from avtk.documents import torus_from_doc
from avtk.elliptic import QuadNumber, formal_quotient_isomorphic, quotient_isomorphic, reduce_tau
from avtk.homs import SubvarietyEmbedding, hom_module, idempotent
from avtk.intlinalg import (
    det,
    flatten_to_int,
    hnf,
    identity,
    matmul,
    mat_eq,
    snf,
    symplectic_basis,
    transpose,
)
from avtk.ppsearch import obstruction_report, pp_search
from avtk.scalars import GeneratorSet
from avtk.torus import PolarisedTorus, ambient_to_lattice, pairing_type, product, standard_gram
from avtk.verdicts import Found
from oracles import rank, span_equal


@pytest.fixture
def criterion(capfd):
    """Time a criterion body and print one checklist line past the capture."""

    def announce(line):
        with capfd.disabled():
            print(line, flush=True)

    def run(num, label, budget_seconds, fn):
        start = time.perf_counter()
        try:
            fn()
        except BaseException:
            announce(f"criterion {num:02d} {label}: FAIL")
            raise
        dt = time.perf_counter() - start
        if dt >= budget_seconds:
            announce(f"criterion {num:02d} {label}: FAIL "
                     f"(took {dt:.2f}s, budget {budget_seconds:.0f}s)")
            raise AssertionError(f"criterion {num} exceeded its budget: {dt:.2f}s")
        announce(f"criterion {num:02d} {label}: PASS ({dt:.2f}s < {budget_seconds:.0f}s)")

    return run


def _surface_of_type(gens, d):
    a, b, c = (gens.scalar(x) for x in ("a", "b", "c"))
    return PolarisedTorus(gens, [[a, b, gens.one(), gens.zero()],
                                 [b, c, gens.zero(), gens.constant(d)]],
                          standard_gram([1, d]))


def test_01_dual_recipe(criterion):
    def body():
        gens = GeneratorSet(("a", "b", "c"))
        a, b, c = (gens.scalar(x) for x in ("a", "b", "c"))
        one, zero, three = gens.one(), gens.zero(), gens.constant(3)
        S = _surface_of_type(gens, 3)
        res = S.dual()
        golden = [[3 * a, b, three, zero], [b, c / 3, zero, one]]
        assert all(res.display.periods[i][j] == golden[i][j]
                   for i in range(2) for j in range(4))
        # the displayed dual frame fed back through dual() returns the original
        back = res.display.dual()
        assert all(back.display.periods[i][j] == S.periods[i][j]
                   for i in range(2) for j in range(4))
        # and on sorted frames the dual is an involution on the nose
        assert S.dual().torus.dual().torus == S

    criterion(1, "dual recipe", 1.0, body)


def test_02_dual_type_reversal(criterion):
    def body():
        names = GeneratorSet(("z11", "z12", "z13", "z22", "z23", "z33"))
        z = {(i, j): names.scalar(f"z{min(i, j) + 1}{max(i, j) + 1}")
             for i in range(3) for j in range(3)}
        D = [1, 1, 2]
        periods = [[z[(i, j)] for j in range(3)]
                   + [names.constant(D[i] if i == j else 0) for j in range(3)]
                   for i in range(3)]
        T = PolarisedTorus(names, periods, standard_gram(D))
        reversed_type = tuple(D[0] * D[-1] // d for d in reversed(D))
        assert T.dual().torus.polarisation_type() == reversed_type == (1, 2, 2)

        gens = GeneratorSet(("a", "b", "c"))
        S = _surface_of_type(gens, 3)
        assert S.dual().torus.polarisation_type() == (1, 3)  # self-dual type

    criterion(2, "dual type reversal", 1.0, body)


def test_03_quotient_pipeline(criterion):
    def body():
        for type_, expected_product in (("1,3", [3, 3]), ("1,2,4", [2, 4, 4])):
            res = run_demo("thm-3.2-generic", type_=type_)
            assert res.payload["product_type"] == expected_product
            assert res.payload["quotient_type"] == [int(x) for x in type_.split(",")]
            checks = res.payload["checks"]
            assert checks["quotient kernel equals pushed complement"] is True
            assert all(checks.values()), checks

    criterion(3, "quotient pipeline", 5.0, body)


def test_04_displayed_lattice_replay(criterion):
    def body():
        res = run_demo("ex-4.1")
        checks = res.payload["checks"]
        assert checks["display span"] is True
        assert checks["base change unimodular"] is True
        assert checks["display entrywise"] is True
        assert all(checks.values()), checks

    criterion(4, "displayed lattice replay", 2.0, body)


def test_05_hom_vanishing(criterion):
    def body():
        gens = GeneratorSet(("tau_E", "tau_F"))
        tau_E, tau_F = gens.scalar("tau_E"), gens.scalar("tau_F")
        E = PolarisedTorus(gens, [[tau_E, gens.one()]], standard_gram([1]))
        F = PolarisedTorus(gens, [[tau_F, gens.one()]], standard_gram([1]))
        assert hom_module(E, F) == []
        assert len(hom_module(E, E)) == 1

    criterion(5, "hom vanishing", 2.0, body)


def test_06_idempotent_identities(criterion):
    def body():
        res = run_demo("ex-4.1")
        checks = res.payload["checks"]
        assert checks["idempotents sum to identity"] is True
        assert checks["norm identity"] is True
        assert res.payload["exponents"] == {"curve": 3, "complement": 3}
        # recompute the curve's idempotent on the quotient and square it
        A = torus_from_doc(res.documents["quotient"])
        tau_E = A.gens.scalar("tau_E")
        cols = []
        for entry in (3 * tau_E, A.gens.constant(3)):
            col = ambient_to_lattice(A, [[entry, A.gens.zero()]])[0]
            assert col is not None and all(x.denominator == 1 for x in col)
            cols.append([int(x) for x in col])
        emb = SubvarietyEmbedding.from_spanning_vectors(A, cols)
        eps = [list(r) for r in idempotent(emb).epsilon]
        assert mat_eq(matmul(eps, eps), eps)

    criterion(6, "idempotent identities", 2.0, body)


def test_07_self_dual_search_exhausted(criterion):
    def body():
        res = run_demo("ex-4.1", bound=10)
        assert res.payload["checks"]["self-dual search exhausted"] is True
        assert res.payload["isom_search"] == {"bound": 10, "tested": 441, "found": False}

    criterion(7, "bounded non-isomorphism", 60.0, body)


def test_08_rank_three_family_obstruction(criterion):
    def body():
        res = run_demo("lemma-5.4", bound=25)
        checks = res.payload["checks"]
        assert checks["family rank"] is True
        assert checks["zero pattern"] is True
        assert checks["search exhausted"] is True
        assert checks["mod-3 obstruction"] is True
        assert res.payload["pp_search"] == {
            "bound": 25, "tested": 51 ** 3, "found": False, "family_rank": 3,
        }
        assert res.payload["obstruction"]["squares"] == [0, 1]
        assert obstruction_report(3)["obstruction"] is True

    criterion(8, "rank-3 family obstruction", 120.0, body)


def test_09_positive_controls(criterion):
    def body():
        # the swap between the two factors of S x S-dual is found immediately
        res = run_demo("ex-5.3", bound=2)
        search = res.payload["isom_search"]
        assert res.payload["checks"]["dual is isomorphic (swap found)"] is True
        assert search["found"] is True and search["bound"] == 3
        # on a principally polarised surface the identity is the witness
        gens = GeneratorSet(("a", "b", "c"))
        S = _surface_of_type(gens, 1)
        pp = pp_search(S, S.dual().torus, bound=1)
        assert isinstance(pp, Found)
        assert [list(r) for r in pp.witness.H] == [[1, 0], [0, 1]]
        assert pp.coefficients == (1,)
        assert pp.tested == 2  # only the zero form precedes the identity

    criterion(9, "positive controls", 10.0, body)


def _in_fundamental_domain(t):
    n, r = t.norm2(), t.re()
    if not (Fraction(-1, 2) <= r < Fraction(1, 2)):
        return False
    if n < 1:
        return False
    if n == 1 and r > 0:
        return False
    return True


def _sl2_orbit(t, bound):
    out = set()
    rng = range(-bound, bound + 1)
    for a, b, c, d in iter_product(rng, rng, rng, rng):
        if a * d - b * c == 1:
            out.add(t.mobius(a, b, c, d))
    return out


def test_10_elliptic_quotients(criterion):
    def body():
        assert quotient_isomorphic(QuadNumber.parse("sqrt(-2)"), 2) is True
        assert quotient_isomorphic(QuadNumber.parse("sqrt(-1)"), 2) is False
        verdict = formal_quotient_isomorphic("tau", 2)
        assert verdict.isomorphic is False and verdict.certificate
        rng = random.Random(20260819)
        checked = 0
        while checked < 50:
            p, q, r = rng.randint(-6, 6), rng.randint(1, 3), rng.randint(1, 4)
            disc = rng.choice([-1, -2, -3, -5, -6, -7])
            t = QuadNumber(p, q, r, disc)
            out = reduce_tau(t)
            if max(abs(x) for row in out.matrix for x in row) > 6:
                continue  # reduction needs entries beyond the brute-force bound
            orbit = _sl2_orbit(t, 6)
            assert out.reduced in orbit
            assert {u for u in orbit if _in_fundamental_domain(u)} == {out.reduced}
            checked += 1

    criterion(10, "elliptic quotients", 30.0, body)


def _random_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def _random_unimodular(rng, n, ops=12):
    U = identity(n)
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        for r in range(n):
            U[r][j] += c * U[r][i]
    if rng.random() < 0.5 and n > 1:
        U[0], U[1] = U[1], U[0]
    return U


def test_11_integer_linear_algebra_properties(criterion):
    def body():
        rng = random.Random(20260820)
        for _ in range(200):  # column-style normal form reconstruction
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            M = _random_matrix(rng, m, n)
            H, U = hnf(M)
            assert mat_eq(H, matmul(M, U))
            assert abs(det(U)) == 1
        for _ in range(200):  # diagonal normal form reconstruction
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            M = _random_matrix(rng, m, n)
            S, U, V = snf(M)
            assert mat_eq(S, matmul(U, matmul(M, V)))
            assert abs(det(U)) == 1 and abs(det(V)) == 1
            diag = [S[i][i] for i in range(min(m, n)) if S[i][i]]
            assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
        gens = GeneratorSet(("t",))
        t = gens.scalar("t")
        done = 0
        while done < 60:  # span equality is an equivalence relation
            n = 2 * rng.randint(1, 2)
            M = _random_matrix(rng, n // 2, n)
            A = [[M[i][j] * t + (i + j) for j in range(n)] for i in range(n // 2)]
            flat = flatten_to_int(A)[0]
            if rank(flat) < len(flat[0]):
                continue
            B = matmul(A, _random_unimodular(rng, n))
            C = matmul(B, _random_unimodular(rng, n))
            assert span_equal(A, A, gens)
            assert span_equal(A, B, gens) and span_equal(B, A, gens)
            assert span_equal(B, C, gens) and span_equal(A, C, gens)
            done += 1
        for _ in range(40):  # symplectic reduction postcondition
            n = rng.randint(1, 3)
            D = []
            for d in sorted(rng.choice([1, 1, 2, 3]) for _ in range(n)):
                if D and d % D[-1]:
                    d *= D[-1]
                D.append(d)
            W = _random_unimodular(rng, 2 * n)
            E = matmul(transpose(W), matmul(standard_gram(D), W))
            U, out = symplectic_basis(E)
            assert mat_eq(matmul(transpose(U), matmul(E, U)), standard_gram(out))
            assert abs(det(U)) == 1
            assert pairing_type(E) == tuple(out)

    criterion(11, "integer linear algebra properties", 60.0, body)
