import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from avtk import intlinalg
from avtk.demos import run_demo
from avtk.documents import torus_from_doc
from avtk.errors import GeneratorMismatchError, PreconditionError, RankDeficiencyError
from avtk.homs import hom_module
from avtk.intlinalg import (
    _poly_div,
    combination,
    det,
    det_mod2,
    det_polynomial,
    elementary_divisors,
    flatten_to_int,
    hnf,
    identity,
    int_inverse,
    int_kernel,
    matmul,
    mat_eq,
    pullback_polynomials,
    rank,
    rat_inv,
    rat_solve,
    row_hnf,
    saturate_columns,
    snf,
    span_equal,
    symplectic_basis,
    transpose,
)
from avtk.scalars import FormalScalar, GeneratorSet, monomial_flatten
from avtk.torus import pairing_type, standard_gram
from oracles import (
    dense_flatten_to_int,
    dense_int_kernel,
    formal_det_polynomial,
    formal_pullback_polynomials,
    fraction_det,
    fraction_gauss_jordan,
    gauss_jordan_inverse,
    gauss_jordan_solve,
    row_hnf_rank,
    snf_saturate_columns,
)


def random_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def random_unimodular(rng, n, ops=12):
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


def is_unimodular(U):
    return abs(det(U)) == 1


# -- determinants -----------------------------------------------------------

def test_det_golden():
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[2]]) == 2
    assert det(identity(4)) == 1


def test_det_bareiss_matches_fraction_arithmetic():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        M = random_matrix(rng, n, n)
        expected = _det_by_expansion(M) if n <= 4 else det(M)
        assert det(M) == expected
        F = [[Fraction(x, 3) for x in row] for row in M]
        assert det(F) == Fraction(expected, 3 ** n)


def _det_by_expansion(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        total += (-1) ** j * M[0][j] * _det_by_expansion(minor)
    return total


def test_det_mod2_agrees_with_det():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 5)
        M = random_matrix(rng, n, n)
        assert det_mod2(M) == det(M) % 2


def test_det_mod2_refuses_non_integral_and_non_square_matrices():
    with pytest.raises(PreconditionError):
        det_mod2([[Fraction(1, 2), 0], [0, 1]])
    with pytest.raises(ValueError):
        det_mod2([[1, 0, 1], [0, 1, 1]])
    assert det_mod2([[Fraction(4, 2), 1], [1, 1]]) == 1


# -- determinant polynomials of pencils ------------------------------------------

def evaluate(terms, c):
    total = 0
    for coeff, mono in terms:
        for v, e in zip(c, mono):
            coeff *= v ** e
        total += coeff
    return total


def test_det_polynomial_golden():
    # det(c0 * I + c1 * J) with J a quarter turn is c0^2 + c1^2
    assert sorted(det_polynomial([identity(2), [[0, -1], [1, 0]]])) == [
        (1, (0, 2)), (1, (2, 0))]
    # a zero leading entry in every member forces a row swap
    assert det_polynomial([[[0, 1], [1, 0]]]) == [(-1, (2,))]
    # members sharing a kernel vector are all singular: the zero polynomial
    assert det_polynomial([[[1, 0], [2, 0]], [[3, 0], [1, 0]]]) == []


@st.composite
def pencils(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    r = draw(st.integers(min_value=1, max_value=3))
    square = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=n, max_size=n)
    mats = draw(st.lists(square, min_size=r, max_size=r))
    if draw(st.booleans()):  # a zero pivot in every member forces row swaps
        for M in mats:
            M[0][0] = 0
    points = draw(st.lists(st.lists(st.integers(-4, 4), min_size=r, max_size=r),
                           min_size=1, max_size=5))
    return mats, points


@settings(max_examples=150, deadline=None)
@given(pencils())
def test_det_polynomial_evaluates_to_the_det_of_each_member(case):
    mats, points = case
    terms = det_polynomial(mats)
    for c in points:
        assert evaluate(terms, c) == det(combination(c, mats))


@st.composite
def oracle_pencils(draw):
    """Pencils of r <= 5 integer n x n matrices, n <= 6, of mixed density.

    Optionally every member has a zero first column from row 0 down to
    row z, which forces row swaps (all rows: every member is singular).
    """
    n = draw(st.integers(min_value=1, max_value=6))
    r = draw(st.integers(min_value=1, max_value=5))
    density = draw(st.sampled_from([0.15, 0.4, 1.0]))
    entry = st.integers(-3, 3)
    cells = st.lists(st.tuples(st.floats(0, 1), entry), min_size=n * n * r,
                     max_size=n * n * r)
    flat = [x if u < density else 0 for u, x in draw(cells)]
    mats = [[flat[(g * n + i) * n:(g * n + i + 1) * n] for i in range(n)] for g in range(r)]
    zero_rows = draw(st.integers(min_value=0, max_value=n))
    for M in mats:
        for i in range(zero_rows):
            M[i][0] = 0
    return mats


@settings(max_examples=300, deadline=None)
@given(oracle_pencils())
@example([[[1, 0], [0, 0]], [[0, 0], [0, 1]]])  # c0 * c1
@example([[[0, 1, 0], [0, 0, 1], [1, 0, 0]]])  # two swaps: +c0^3
@example([[[0, 2], [0, 5]], [[0, 1], [0, 3]]])  # a zero column: singular
@example([[[-7]], [[0]], [[4]]])
def test_det_polynomial_matches_the_formal_oracle(mats):
    assert det_polynomial(mats) == formal_det_polynomial(mats)


def test_det_polynomial_of_the_self_dual_hom_pencil_of_ex_4_1():
    # Hom(A, dual A) of the demo ex-4.1 at n = 4: rank 10 on 8 x 8 matrices
    demo = run_demo("ex-4.1", n=4, bound=1)
    A = torus_from_doc(demo.documents["quotient-standard"])
    Ahat = torus_from_doc(demo.documents["dual"])
    mats = [f.rational_rep for f in hom_module(A, Ahat)]
    assert len(mats) == 10 and all(len(M) == 8 and len(M[0]) == 8 for M in mats)
    terms = det_polynomial(mats)
    assert terms == formal_det_polynomial(mats)
    assert len(terms) == 21
    for c in ([1] * 10, list(range(-4, 6)), [0, 3, 0, -1, 2, 0, 0, 5, -2, 1]):
        assert evaluate(terms, c) == det(combination(c, mats))


def test_integer_polynomial_division():
    # (c0 + c1) * (c0 - c1) = c0^2 - c1^2
    assert _poly_div({(2, 0): 1, (0, 2): -1}, {(1, 0): 1, (0, 1): 1}) == {
        (1, 0): 1, (0, 1): -1}
    assert _poly_div({(1, 1): -6}, {(0, 1): 3}) == {(1, 0): -2}
    with pytest.raises(ValueError):  # the coefficient 3 does not divide 2
        _poly_div({(1, 0): 2}, {(1, 0): 3})
    with pytest.raises(ValueError):  # 3 c0 divides 6 c0, not 6 c0 + 2
        _poly_div({(1, 0): 6, (0, 0): 2}, {(1, 0): 3})
    with pytest.raises(ValueError):  # the monomial c1 does not divide c0
        _poly_div({(1, 0): 1}, {(0, 1): 1})
    with pytest.raises(ValueError):  # c0 + c1 does not divide c0^2 + 1
        _poly_div({(2, 0): 1, (0, 0): 1}, {(1, 0): 1, (0, 1): 1})


def test_det_polynomial_refuses_malformed_pencils():
    I2, I3 = identity(2), identity(3)
    for mats in ([], [[[1, 2, 3], [4, 5, 6]]], [I2, I3], [I3, I2], [[[1], [2]]],
                 [[[1, 0], [0]]]):
        with pytest.raises(PreconditionError):
            det_polynomial(mats)
    for bad in (Fraction(1, 2), 1.0, "1"):
        with pytest.raises(PreconditionError):
            det_polynomial([I2, [[0, bad], [0, 0]]])
    # integral Fractions are integers, and 0 x 0 matrices have det 1
    assert det_polynomial([[[Fraction(4, 2)]]]) == [(2, (1,))]
    assert det_polynomial([[], []]) == [(1, (0, 0))]


# -- pull-back conditions of pencils ----------------------------------------------

def alternating(draw, size):
    """A random alternating integer matrix, degenerate or not."""
    E = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            E[i][j] = draw(st.integers(-3, 3))
            E[j][i] = -E[i][j]
    return E


@st.composite
def pullback_cases(draw):
    """r <= 4 integer 2k x 2k matrices, k <= 3, of mixed density, two
    alternating grams and points c to evaluate at."""
    size = 2 * draw(st.integers(min_value=1, max_value=3))
    r = draw(st.integers(min_value=1, max_value=4))
    density = draw(st.sampled_from([0.15, 0.4, 1.0]))
    cells = st.lists(st.tuples(st.floats(0, 1), st.integers(-3, 3)),
                     min_size=size * size * r, max_size=size * size * r)
    flat = [x if u < density else 0 for u, x in draw(cells)]
    mats = [[flat[(g * size + i) * size:(g * size + i + 1) * size] for i in range(size)]
            for g in range(r)]
    points = draw(st.lists(st.lists(st.integers(-4, 4), min_size=r, max_size=r),
                           min_size=1, max_size=4))
    return mats, alternating(draw, size), alternating(draw, size), points


@settings(max_examples=250, deadline=None)
@given(pullback_cases())
@example(([[[0, 1], [1, 0]], [[1, 0], [0, 1]]], [[0, 1], [-1, 0]], [[0, 1], [-1, 0]],
          [[1, 0], [0, 1], [1, 1]]))  # c1^2 - c0^2 - 1: the member's det, minus 1
@example(([[[0, 0], [0, 0]]], [[0, 2], [-2, 0]], [[0, 0], [0, 0]], [[3]]))  # the zero polynomial
def test_pullback_polynomials_match_the_formal_route_and_the_integer_product(case):
    mats, gram_y, gram_x, points = case
    polys = pullback_polynomials(mats, gram_y, gram_x)
    formal = formal_pullback_polynomials(mats, gram_y, gram_x)
    assert [sorted(p) for p in polys] == [sorted(p) for p in formal]
    assert polys == formal  # both in ascending graded-lex order
    size = len(gram_y)
    for c in points:
        M = combination(c, mats)
        pulled = matmul(transpose(M), matmul(gram_y, M))
        assert [evaluate(p, c) for p in polys] == [
            pulled[i][j] - gram_x[i][j] for i in range(size) for j in range(i + 1, size)]


# -- Hermite form -------------------------------------------------------------

def test_hnf_reconstruction_randomized():
    rng = random.Random(101)
    for trial in range(120):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        M = random_matrix(rng, m, n)
        H, U = hnf(M)
        assert is_unimodular(U), (trial, M)
        assert mat_eq(matmul(M, U), H), (trial, M)


def test_hnf_is_canonical_under_column_changes():
    rng = random.Random(103)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        M = random_matrix(rng, m, n)
        W = random_unimodular(rng, n)
        H1, _ = hnf(M)
        H2, _ = hnf(matmul(M, W))
        assert mat_eq(H1, H2)


def test_row_hnf_reconstruction():
    rng = random.Random(107)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        M = random_matrix(rng, m, n)
        H, U = row_hnf(M)
        assert is_unimodular(U)
        assert mat_eq(matmul(U, M), H)


# -- Smith form ---------------------------------------------------------------

def test_snf_reconstruction_randomized():
    rng = random.Random(211)
    for trial in range(120):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        M = random_matrix(rng, m, n)
        S, U, V = snf(M)
        assert is_unimodular(U) and is_unimodular(V), (trial, M)
        assert mat_eq(matmul(U, matmul(M, V)), S), (trial, M)
        diag = [S[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert S[i][j] == 0
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0


def test_elementary_divisors_golden():
    assert elementary_divisors([[2, 0], [0, 3]]) == [1, 6]
    assert elementary_divisors([[4, 0], [0, 6]]) == [2, 12]
    assert elementary_divisors(identity(3)) == [1, 1, 1]


# -- kernels and saturation ---------------------------------------------------

def test_int_kernel_annihilates_and_is_saturated():
    rng = random.Random(307)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        M = random_matrix(rng, m, n, lo=-4, hi=4)
        kern = int_kernel(M)
        assert len(kern) == n - rank(M)
        for v in kern:
            assert all(sum(M[i][j] * v[j] for j in range(n)) == 0 for i in range(m))
        if kern:
            cols = [[v[i] for v in kern] for i in range(n)]
            assert all(d == 1 for d in elementary_divisors(cols))


def test_int_kernel_golden():
    # x + y + z = 0 over Z
    kern = int_kernel([[1, 1, 1]])
    assert len(kern) == 2
    for v in kern:
        assert sum(v) == 0


@st.composite
def integer_matrices(draw):
    """Sparse or dense, with zero rows and columns, all-zero, full-rank and
    empty cases; [] and [[], ...] stand for the matrices with no column."""
    kind = draw(st.sampled_from(["sparse", "dense", "zero", "full-rank", "empty"]))
    if kind == "empty":
        return draw(st.sampled_from([[], [[]], [[], [], []]]))
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 8))
    big = st.integers(-40, 40)
    if kind == "full-rank":  # a nonzero diagonal under random entries, with m <= n
        m = min(m, n)
        M = [[draw(big) if j > i else 0 for j in range(n)] for i in range(m)]
        for i in range(m):
            M[i][i] = draw(st.integers(1, 9))
        return M
    entry = {"sparse": st.integers(-9, 9).filter(bool) | st.just(0) | st.just(0) | st.just(0),
             "dense": big, "zero": st.just(0)}[kind]
    M = [[draw(entry) for _ in range(n)] for _ in range(m)]
    for i in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        M[i] = [0] * n
    for j in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        for row in M:
            row[j] = 0
    if draw(st.booleans()):  # repeated rows and columns mean a larger kernel
        M.append(list(M[0]))
        for row in M:
            row.append(row[0])
    return M


@settings(max_examples=400, deadline=None)
@given(integer_matrices())
@example([[2, 3, 4, 0], [1, 0, 0, 5], [0, 1, 1, 1], [0, 0, 0, 0]])  # row 0 fills rows 1, 2
def test_int_kernel_matches_the_dense_oracle(M):
    assert int_kernel(M) == dense_int_kernel(M)


def test_integer_routines_refuse_non_integral_entries():
    for call in (int_kernel, row_hnf, hnf, rank, snf, saturate_columns):
        with pytest.raises(PreconditionError):
            call([[Fraction(3, 2), 2]])
    # integral Fractions are integers
    assert int_kernel([[Fraction(4, 2), 2]]) == int_kernel([[2, 2]]) == [[1, -1]]
    assert hnf([[Fraction(3), 0]])[0] == [[3, 0]]


def test_saturate_columns():
    sat = saturate_columns([[2], [4]])
    assert [row[0] for row in sat] == [1, 2]
    sat2 = saturate_columns([[2, 0], [0, 3]])
    assert all(d == 1 for d in elementary_divisors(sat2))


# -- rational solving ----------------------------------------------------------

def test_rat_inv_round_trip():
    rng = random.Random(401)
    done = 0
    while done < 30:
        n = rng.randint(1, 4)
        M = random_matrix(rng, n, n)
        if det(M) == 0:
            continue
        inv = rat_inv(M)
        assert mat_eq(matmul(M, inv), identity(n))
        done += 1


def test_rat_solve():
    A = [[2, 1], [1, 1]]
    x = rat_solve(A, [3, 2])
    assert x == [Fraction(1), Fraction(1)]


def test_rat_solve_refuses_a_solution_that_does_not_verify(monkeypatch):
    # a wrong last pivot stands in for an elimination slip
    gauss_jordan = intlinalg._gauss_jordan
    monkeypatch.setattr(intlinalg, "_gauss_jordan",
                        lambda rows, n: (lambda p, d, s: (p, 2 * d, s))(*gauss_jordan(rows, n)))
    assert rat_solve([[2, 1], [1, 1]], [3, 2]) is None


def test_rat_inv_singular_raises():
    with pytest.raises(ValueError):
        rat_inv([[1, 2], [2, 4]])


# -- the eliminations against the references they replaced ---------------------

_RATIONAL = st.integers(-9, 9) | st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def rational_matrices(draw, square=False):
    """Square, tall or wide matrices of ints, or of ints and Fractions.

    Some are rank-deficient (a row or a column a combination of two
    others), some have zero rows or zero columns, some have full row rank;
    [] and [[], ...] stand for the matrices with no column.
    """
    m = draw(st.integers(0, 6))
    n = m if square else draw(st.integers(0, 6)) if m else 0
    entry = _RATIONAL if draw(st.booleans()) else st.integers(-9, 9)
    kind = draw(st.sampled_from(["random", "deficient", "full-row-rank", "zeros"]))
    if kind == "full-row-rank" and m <= n:  # a nonzero diagonal under random entries
        M = [[draw(entry) if j > i else 0 for j in range(n)] for i in range(m)]
        for i in range(m):
            M[i][i] = draw(entry.filter(bool))
        return draw(st.permutations(M))
    M = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if kind == "deficient" and m >= 3 and n >= 3:
        q = [draw(_RATIONAL) for _ in range(4)]
        i, j, k = draw(st.permutations(range(m)))[:3]
        M[i] = [q[0] * a + q[1] * b for a, b in zip(M[j], M[k])]
        i, j, k = draw(st.permutations(range(n)))[:3]
        for row in M:
            row[i] = q[2] * row[j] + q[3] * row[k]
    if kind == "zeros" and m and n:
        M[draw(st.integers(0, m - 1))] = [0] * n
        j = draw(st.integers(0, n - 1))
        for row in M:
            row[j] = Fraction(0) if draw(st.booleans()) else 0
    return M


def _outcome(call, *args):
    """(the value, or the type and message of the error raised)."""
    try:
        return call(*args)
    except (ValueError, PreconditionError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(rational_matrices(square=True))
@example([[Fraction(1, 2), 1], [1, 2]])  # singular over Q
@example([[Fraction(4, 2)]])  # a Fraction with an integer value
def test_det_matches_the_fraction_oracle_in_value_and_type(M):
    want = fraction_det(M)
    if all(type(x) is int for row in M for x in row):
        want = int(want)
    got = det(M)
    assert got == want and type(got) is type(want)


_S = GeneratorSet(("s",)).scalar("s")


@pytest.mark.parametrize("M", [[[1.5]], [[1, 2], [0, 0.5]], [[_S]],
                               [[Fraction(1, 2), _S], [1, 1]]])
def test_det_refuses_entries_that_are_not_ints_or_fractions(M):
    with pytest.raises(PreconditionError, match="not an int or a Fraction"):
        det(M)


@pytest.mark.parametrize("M", [[[0.1]], [[1, 2], [0, 0.5]], [[_S]],
                               [[Fraction(1, 2), _S], [1, 1]]])
def test_rat_inv_and_rat_solve_refuse_entries_that_are_not_ints_or_fractions(M):
    # a float was taken at its binary value: rat_inv([[0.1]]) gave
    # 36028797018963968/3602879701896397
    with pytest.raises(PreconditionError, match="inverse entry .* not an int or a Fraction"):
        rat_inv(M)
    with pytest.raises(PreconditionError, match="system entry .* not an int or a Fraction"):
        rat_solve(M, [1] * len(M))


def test_rat_solve_refuses_a_right_hand_side_that_is_not_ints_or_fractions():
    with pytest.raises(PreconditionError, match="system entry 0.5 is not an int or a Fraction"):
        rat_solve([[1, 0], [0, 2]], [1, 0.5])
    with pytest.raises(PreconditionError, match="not an int or a Fraction"):
        rat_solve([[1]], [_S])
    assert rat_solve([[Fraction(1, 2)]], [1]) == [2]


@settings(max_examples=400, deadline=None)
@given(rational_matrices(square=True) | rational_matrices())
def test_rat_inv_matches_the_gauss_jordan_oracle_in_value_and_type(M):
    want = _outcome(gauss_jordan_inverse, M)
    got = _outcome(rat_inv, M)
    assert got == want
    if isinstance(want, list):
        assert _types(got) == [[Fraction] * len(M)] * len(M)


@st.composite
def integer_rows(draw):
    """(rows, n): a zero-heavy integer matrix and a count n of its columns to
    eliminate on, so that pivots need row swaps, columns lack pivots and
    rows end up zero."""
    m, width = draw(st.integers(0, 6)), draw(st.integers(0, 8))
    entry = st.integers(-9, 9) | st.just(0) | st.just(0)
    rows = [[draw(entry) for _ in range(width)] for _ in range(m)]
    if m >= 2 and draw(st.booleans()):  # a row that is a combination of two others
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows, draw(st.integers(0, width))


@settings(max_examples=400, deadline=None)
@given(integer_rows())
@example(([[0, 1, 5], [1, 0, 7]], 2))  # a row swap
@example(([[2, 4, 1], [1, 2, 1], [3, 6, 2]], 2))  # a column with no pivot
def test_gauss_jordan_rows_are_d_times_the_fraction_gauss_jordan_rows(case):
    rows, n = case
    ref = [[Fraction(x) for x in row] for row in rows]
    want = fraction_gauss_jordan(ref, n)
    got, d, sign = intlinalg._gauss_jordan(rows, n)
    assert got == want and sign in (1, -1)
    assert rows == [[d * x for x in row] for row in ref]
    assert all(type(x) is int for row in rows for x in row) and type(d) is int


@st.composite
def square_integer_matrices(draw):
    """Square, zero-heavy, often singular or needing a row swap, sometimes
    with integral Fractions; some are not square."""
    n = draw(st.integers(0, 6))
    cols = n if draw(st.integers(0, 9)) else n + 1
    entry = st.integers(-6, 6) | st.just(0) | st.just(0) | st.just(Fraction(4, 2))
    return [[draw(entry) for _ in range(cols)] for _ in range(n)]


@settings(max_examples=400, deadline=None)
@given(square_integer_matrices())
@example([[0, 1], [1, 0]])  # one swap: det -1
@example([[0, 0, 1], [0, 2, 0], [3, 0, 0]])
@example([[0, 1], [0, 2]])  # singular, and the first column has no pivot
@example([])
def test_int_inverse_is_the_adjugate_and_the_determinant(M):
    want = _outcome(gauss_jordan_inverse, M)
    got = _outcome(int_inverse, M)
    if not isinstance(want, list):
        assert got == want  # non-square or singular, by the same message
        return
    adj, d = got
    n = len(M)
    assert d == det(M) and type(d) is int and d != 0
    assert matmul(M, adj) == [[d * (i == j) for j in range(n)] for i in range(n)]
    assert adj == [[d * x for x in row] for row in want]
    assert all(type(x) is int for row in adj for x in row)


@st.composite
def linear_systems(draw):
    """(A, b): b is A x for a random x, or a random vector that is often inconsistent."""
    A = draw(rational_matrices())
    if draw(st.booleans()):
        x = [draw(_RATIONAL) for _ in range(len(A[0]) if A else 0)]
        b = [sum((a * c for a, c in zip(row, x)), Fraction(0)) for row in A]
    else:
        b = [draw(_RATIONAL) for _ in A]
    return A, b


@settings(max_examples=400, deadline=None)
@given(linear_systems())
@example(([[1, 1], [2, 2], [0, 0]], [1, 2, 1]))  # an inconsistent right-hand side
@example(([[], []], [0, 1]))  # no unknowns
def test_rat_solve_matches_the_gauss_jordan_oracle_in_value_and_type(system):
    A, b = system
    want = gauss_jordan_solve(A, b)
    got = rat_solve(A, b)
    assert got == want
    if want is not None:
        assert [type(x) for x in got] == [Fraction] * len(want)


@st.composite
def integer_or_integral_fraction_matrices(draw):
    """integer_matrices, with some entries as Fractions of integer value."""
    M = draw(integer_matrices())
    if draw(st.booleans()):
        M = [[Fraction(x) if draw(st.booleans()) else x for x in row] for row in M]
    return M


@settings(max_examples=400, deadline=None)
@given(integer_or_integral_fraction_matrices())
@example([[2], [4]])
@example([[1, 0], [0, 1], [0, 0]])  # a left kernel and full column rank
@example([[1, 2, 3], [4, 5, 6]])  # an empty left kernel
def test_saturate_columns_matches_the_snf_oracle_in_value_and_type(M):
    got = saturate_columns(M)
    assert got == snf_saturate_columns(M)
    assert all(type(x) is int for row in got for x in row)
    assert len(got) == len(M)


@settings(max_examples=400, deadline=None)
@given(integer_or_integral_fraction_matrices())
def test_rank_matches_the_row_hnf_oracle(M):
    got = rank(M)
    assert got == row_hnf_rank(M) and type(got) is int


# -- span comparison ------------------------------------------------------------

G = GeneratorSet(("t",))
T = G.scalar("t")


def _scalar_matrix(rows):
    return [[x if not isinstance(x, (int, Fraction)) else G.constant(x) for x in row]
            for row in rows]


def test_span_equal_is_an_equivalence():
    rng = random.Random(503)
    for _ in range(40):
        n = 2 * rng.randint(1, 2)
        M = random_matrix(rng, n // 2, n)
        A = _scalar_matrix([[M[i][j] * T + (i + j) for j in range(n)] for i in range(n // 2)])
        if _span_rank_deficient(A):
            continue
        U1 = random_unimodular(rng, n)
        U2 = random_unimodular(rng, n)
        B = matmul(A, U1)
        C = matmul(B, U2)
        assert span_equal(A, A, G)           # reflexive
        assert span_equal(A, B, G) and span_equal(B, A, G)   # symmetric
        assert span_equal(A, B, G) and span_equal(B, C, G) and span_equal(A, C, G)


def _span_rank_deficient(A):
    flat = flatten_to_int(A)[0]
    return rank(flat) < len(flat[0])


def test_span_contains_strictly():
    A = _scalar_matrix([[T, 1]])
    B = matmul(A, [[2, 0], [0, 2]])
    assert not span_equal(A, B, G)


def test_span_equal_rejects_rank_deficiency():
    A = _scalar_matrix([[T, 2 * T]])
    with pytest.raises(RankDeficiencyError):
        span_equal(A, A, G)


def test_span_equal_names_the_rank_deficient_side():
    dependent = _scalar_matrix([[T, 2 * T]])
    independent = _scalar_matrix([[T, 1]])
    with pytest.raises(RankDeficiencyError, match="left"):
        span_equal(dependent, independent, G)
    with pytest.raises(RankDeficiencyError, match="left"):
        span_equal(dependent, dependent, G)  # the left side is checked first
    with pytest.raises(RankDeficiencyError, match="right"):
        span_equal(independent, dependent, G)


def test_span_with_rational_coefficients():
    # halves on both sides share one common denominator
    A = _scalar_matrix([[T / 2, Fraction(1, 2)]])
    B = matmul(A, [[1, 1], [0, 1]])
    assert span_equal(A, B, G)
    assert not span_equal(A, _scalar_matrix([[T, 1]]), G)


def test_flatten_to_int_shares_monomials_and_denominator():
    A = _scalar_matrix([[T / 2, Fraction(1, 3)]])
    B = _scalar_matrix([[T, 1]])
    FA, FB = flatten_to_int(A, B)
    assert len(FA[0]) == len(FB[0]) == 2
    # same scaling applied to both: B's flattening is 6x the naive one
    assert any(abs(x) == 6 for row in FB for x in row)


def test_flatten_to_int_refuses_different_row_counts():
    a = G.scalar("t")
    with pytest.raises(PreconditionError):
        flatten_to_int([[a]], [[a], [a + 1]])
    with pytest.raises(PreconditionError):
        flatten_to_int([[a], [a + 1]], [[a]])


_FLAT_GENS = [GeneratorSet(names) for names in (("u",), ("u", "v"), ("u", "v", "w"))]


@st.composite
def formal_matrix_groups(draw):
    """One to three formal matrices over one generator set, same row count."""
    gens = draw(st.sampled_from(_FLAT_GENS))
    width = len(gens)
    coeff = st.integers(-6, 6) | st.fractions(min_value=-6, max_value=6, max_denominator=9)
    mono = st.tuples(*[st.integers(0, 2)] * width)
    entry = st.one_of(
        st.just(gens.zero()),
        st.builds(lambda terms: FormalScalar(gens, terms),
                  st.dictionaries(mono, coeff, max_size=4)),
    )
    rows = draw(st.integers(0, 3))
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    return [[[draw(entry) for _ in range(w)] for _ in range(rows)] for w in widths]


@settings(max_examples=200, deadline=None)
@given(formal_matrix_groups())
def test_flatten_to_int_matches_the_dense_oracle(group):
    got = flatten_to_int(*group)
    assert got == dense_flatten_to_int(*group)
    assert all(type(x) is int for Z in got for row in Z for x in row)


@settings(max_examples=100, deadline=None)
@given(formal_matrix_groups())
def test_monomial_flatten_round_trips_through_its_denominator(group):
    for M in group:
        d, P = monomial_flatten(M)
        denominators = [c.denominator for row in M for x in row for c in x.terms.values()]
        assert d == lcm(1, *denominators)
        assert len(P) == len(M) and [len(r) for r in P] == [len(r) for r in M]
        for row, P_row in zip(M, P):
            for x, p in zip(row, P_row):
                assert all(type(c) is int and c for c in p.values())
                assert FormalScalar(x.gens, {m: Fraction(c, d) for m, c in p.items()}) == x


def test_flatten_to_int_and_span_equal_refuse_mixed_generator_sets():
    s, x = _MM_GENS.scalar("s"), _OTHER_GENS.scalar("x")
    for groups in (([[s, x]],), ([[s]], [[x]]), ([[s], [_OTHER_GENS.zero()]],)):
        with pytest.raises(GeneratorMismatchError):
            flatten_to_int(*groups)
    for A, B in (([[s, x]], [[s, s]]), ([[s]], [[x]]), ([[s, 1]], [[x, 1]])):
        with pytest.raises(GeneratorMismatchError):
            span_equal(A, B)
        with pytest.raises(GeneratorMismatchError):
            span_equal(A, B, _MM_GENS)


# -- symplectic reduction ---------------------------------------------------------

def test_symplectic_basis_postcondition_randomized():
    rng = random.Random(701)
    for trial in range(40):
        n = rng.randint(1, 3)
        D = sorted(rng.choice([1, 1, 2, 3]) for _ in range(n))
        D = _divisibility_chain(D)
        E0 = standard_gram(D)
        W = random_unimodular(rng, 2 * n)
        E = matmul(transpose(W), matmul(E0, W))
        U, out = symplectic_basis(E)
        S = matmul(transpose(U), matmul(E, U))
        assert mat_eq(S, standard_gram(out)), (trial, D)
        assert is_unimodular(U)
        for a, b in zip(out, out[1:]):
            assert b % a == 0
        assert pairing_type(E) == tuple(out)


def _divisibility_chain(D):
    out = []
    for d in D:
        if out and d % out[-1]:
            d = d * out[-1]
        out.append(d)
    return out


@pytest.mark.parametrize("D", [(1,), (2, 2, 6), (1, 3, 3, 6, 6), (2, 4, 4, 12), (1, 1, 2, 2, 12)])
def test_symplectic_basis_recovers_chains_with_repeated_divisors(D):
    rng = random.Random(sum(D) * len(D))
    for _ in range(8):
        W = random_unimodular(rng, 2 * len(D), ops=4 * len(D))
        E = matmul(transpose(W), matmul(standard_gram(D), W))
        U, out = symplectic_basis(E)
        assert tuple(out) == D == pairing_type(E)
        assert mat_eq(matmul(transpose(U), matmul(E, U)), standard_gram(out))
        assert is_unimodular(U)


def test_symplectic_basis_of_the_empty_form():
    assert symplectic_basis([]) == ([], [])


def test_symplectic_basis_rejects_bad_forms():
    with pytest.raises(PreconditionError):
        symplectic_basis([[0, 1], [1, 0]])  # symmetric, not alternating
    with pytest.raises(PreconditionError):
        symplectic_basis([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])  # odd size
    with pytest.raises(PreconditionError):
        symplectic_basis([[0, 0], [0, 0]])  # degenerate


def test_span_equal_promotes_integers_over_gens():
    # ints and Fractions are constants: over gens when no entry is formal,
    # over the formal entries' generator set otherwise
    U = [[2, 1], [1, 1]]
    assert span_equal([[1, 0], [0, 1]], U, G)
    assert span_equal([[1, 0], [0, 1]], U)
    assert not span_equal([[1, 0], [0, 2]], U, G)
    assert span_equal([[T, 1], [1, 0]], matmul([[T, 1], [1, 0]], U), G)
    assert span_equal([[Fraction(1, 2)]], [[G.constant(Fraction(-1, 2))]], G)
    assert not span_equal([[1]], [[G.constant(2)]], G)


# -- hypothesis properties ---------------------------------------------------------

small_ints = st.integers(min_value=-6, max_value=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=2, max_size=4))
def test_hnf_fixes_its_own_output(rows):
    H, _ = hnf(rows)
    H2, _ = hnf(H)
    assert mat_eq(H, H2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(small_ints, min_size=4, max_size=4), min_size=4, max_size=4))
def test_snf_divisors_invariant_under_transpose(rows):
    S, _, _ = snf(rows)
    St, _, _ = snf(transpose(rows))
    n = len(rows)
    assert [S[i][i] for i in range(min(n, 4))] == [St[i][i] for i in range(min(n, 4))]


# -- matmul on rational operands, against a loop written here ----------------------

def _loop_matmul(A, B):
    """Entry by entry with Python's own int and Fraction arithmetic."""
    out = []
    for row in A:
        out_row = []
        for j in range(len(B[0])):
            acc = row[0] * B[0][j]
            for t in range(1, len(B)):
                acc = acc + row[t] * B[t][j]
            out_row.append(acc)
        out.append(out_row)
    return out


def _types(M):
    return [[type(x) for x in row] for row in M]


@st.composite
def rational_operands(draw):
    m, k, n = (draw(st.integers(1, 6)) for _ in range(3))
    entry = st.integers(-20, 20)
    if draw(st.booleans()):  # otherwise both operands are all-int
        entry = entry | st.fractions(min_value=-20, max_value=20, max_denominator=12)
    A = [[draw(entry) for _ in range(k)] for _ in range(m)]
    B = [[draw(entry) for _ in range(n)] for _ in range(k)]
    zero = st.sampled_from([0, Fraction(0)])
    if draw(st.booleans()):
        A[draw(st.integers(0, m - 1))] = [draw(zero) for _ in range(k)]
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in B:
            row[j] = draw(zero)
    return A, B


@settings(max_examples=300, deadline=None)
@given(rational_operands())
def test_rational_matmul_matches_the_loop_in_value_and_type(operands):
    A, B = operands
    got, want = matmul(A, B), _loop_matmul(A, B)
    assert got == want
    assert _types(got) == _types(want)


def test_rational_matmul_entry_types():
    # a Fraction in row 0 of A or in column 1 of B makes the entry a Fraction,
    # even when its value is an integer
    got = matmul([[Fraction(1, 2), 1], [1, 1]], [[2, Fraction(0)], [0, 2]])
    assert got == [[1, 2], [2, 2]]
    assert _types(got) == [[Fraction, Fraction], [int, Fraction]]


@pytest.mark.parametrize("A,B", [
    pytest.param([[G.scalar("t"), 1]], [[Fraction(1, 2)], [3]], id="formal-scalar"),
    pytest.param([[1, Fraction(1, 2)]], [[2], [G.scalar("t")]], id="formal-scalar-in-B"),
    pytest.param([[True, 2]], [[1], [Fraction(1, 2)]], id="bool"),
])
def test_non_rational_entries_take_the_generic_loop(A, B):
    got, want = matmul(A, B), _loop_matmul(A, B)
    assert got == want
    assert _types(got) == _types(want)


# -- matmul with formal operands, against the same loop ----------------------------

_MM_GENS = GeneratorSet(("s", "t"))
_OTHER_GENS = GeneratorSet(("s", "x"))
_ST = _MM_GENS.scalar("s") * _MM_GENS.scalar("t")


def _formal_entries(gens):
    s, t = gens.gens()
    return st.sampled_from([gens.zero(), s, t, -s, s + 1, s * t - Fraction(1, 2), 2 * t * t,
                            gens.constant(Fraction(1, 3)), gens.constant(-3)])


@st.composite
def formal_operands(draw):
    m, k, n = (draw(st.integers(1, 5)) for _ in range(3))
    rational = st.integers(-3, 3) | st.fractions(min_value=-3, max_value=3, max_denominator=4)
    formal = _formal_entries(_MM_GENS)
    mixed = st.one_of(formal, rational, st.just(0))
    a_entry, b_entry = draw(st.sampled_from(
        [(formal, formal), (formal, rational), (rational, formal), (mixed, mixed)]))
    A = [[draw(a_entry) for _ in range(k)] for _ in range(m)]
    B = [[draw(b_entry) for _ in range(n)] for _ in range(k)]
    if k >= 2 and draw(st.booleans()):
        # a sum that cancels: a0*b0 + a1*b1 with a1 = a0 and b1 = -b0
        A[0][1] = A[0][0]
        B[1][0] = -B[0][0]
    return A, B


@settings(max_examples=200, deadline=None)
@given(formal_operands())
@example(([[_ST, _ST, 1]], [[1], [-1], [0]]))  # cancels to the zero scalar
def test_formal_matmul_matches_the_loop_in_value_and_type(operands):
    A, B = operands
    got, want = matmul(A, B), _loop_matmul(A, B)
    assert got == want
    assert _types(got) == _types(want)
    for row in got:
        for x in row:
            if isinstance(x, FormalScalar):  # canonical: nonzero Fraction coefficients
                assert x.gens == _MM_GENS
                assert all(type(c) is Fraction and c for c in x.terms.values())


def test_formal_matmul_refuses_mixed_generator_sets():
    s, _ = _MM_GENS.gens()
    x = _OTHER_GENS.scalar("x")
    for A, B in (
        ([[s]], [[x]]),
        ([[s, x]], [[1], [1]]),
        ([[s, 1]], [[1], [_OTHER_GENS.zero()]]),  # a zero formal factor still counts
        ([[2, 0]], [[s], [0 * x]]),
    ):
        with pytest.raises(GeneratorMismatchError):
            _loop_matmul(A, B)
        with pytest.raises(GeneratorMismatchError):
            matmul(A, B)
    # different generator sets in different output entries are not combined
    A, B = [[s], [x]], [[2, Fraction(1, 2)]]
    got = matmul(A, B)
    assert got == _loop_matmul(A, B)
    assert [[y.gens for y in row] for row in got] == [[_MM_GENS] * 2, [_OTHER_GENS] * 2]
