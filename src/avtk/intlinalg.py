"""Exact linear algebra over Z and Q on plain list-of-list matrices; no floats.

Rational matrices are worked on as integers over one denominator per
row, and Fractions are built only for results.  det_polynomial and
pullback_polynomials run on integer polynomials of one pencil of integer
maps, with exact division.  scalars.monomial_flatten puts a period
matrix over one common denominator as integer polynomials, from which
homs, ppsearch and torus build their sparse systems and products
(_add_product, _add_row_times, _formal_product), the W = D_X^-1 @ Z_X of
hom_module among them; int_kernel eliminates on sparse columns.  One
check, period_identity_holds, verifies L @ P_X == P_Y @ M on those
slices for every Hom generator and every admissible family element.
flatten_to_int lays one monomial_flatten of several matrices out as
dense integer matrices, and column spans are compared on that layout by
canonical column Hermite forms, whose nonzero columns also give the
ranks.  matmul sums entry by entry in the operands' own arithmetic.
Inputs and outputs are dense matrices, and every result is canonical.

Conventions:
  * Six eliminations remain, one per job: fraction-free Bareiss for det
    over Z and Q, and over integer polynomials for det_polynomial; one
    fraction-free Gauss-Jordan on integer rows (_gauss_jordan) for
    rat_inv, rat_solve and int_inverse, the adjugate and determinant; the
    sparse kernel int_kernel, for saturate_columns and rank too; row_hnf,
    for hnf; snf, for elementary_divisors.  symplectic_basis is built
    from snf, int_kernel and matmul, and det_mod2 from det.
  * hnf(M) returns (H, U) with H = M @ U, U unimodular, H the canonical
    column Hermite form (pivots positive, entries left of a pivot reduced,
    zero columns trailing).
  * snf(M) returns (S, U, V) with S = U @ M @ V and s_i | s_{i+1}.
  * symplectic_basis(E) returns (U, D) with U^T E U = [[0, D], [-D, 0]].
  * The integer routines (row_hnf, hnf, rank, int_kernel, snf and the
    pencils) read entries through as_int: ints and integral Fractions are
    accepted, any other entry is a PreconditionError.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations, compress
from math import lcm, prod
from operator import add, mul, neg, sub

from .errors import GeneratorMismatchError, PreconditionError, RankDeficiencyError
from .scalars import FormalScalar, GeneratorSet, _grlex_key, monomial_flatten


# -- basic matrix helpers ----------------------------------------------------

def shape(M):
    return (len(M), len(M[0]) if M else 0)


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def transpose(M):
    m, n = shape(M)
    return [[M[i][j] for i in range(m)] for j in range(n)]


def _over_common_denominator(vectors):
    """Each vector as (integer numerators, common denominator)."""
    out = []
    for v in vectors:
        if any(type(x) is Fraction for x in v):
            d = lcm(*[x.denominator for x in v])
            out.append(([x.numerator * (d // x.denominator) for x in v], d))
        else:
            out.append((v, 1))
    return out


def matmul(A, B):
    """Matrix product; entries may be ints, Fractions or formal scalars.

    Each output entry is the sum a0*b0 + a1*b1 + ..., sum(map(mul, a, b)),
    taken in the operands' own arithmetic: an entry with a formal factor
    is a FormalScalar, an entry whose row of A or column of B holds a
    Fraction is a Fraction, and any other entry has the type Python's
    arithmetic gives it.  Formal entries over different generator sets in
    one row of A and one column of B raise GeneratorMismatchError.
    """
    m, k = shape(A)
    k2, n = shape(B)
    if k != k2:
        raise ValueError(f"shape mismatch {shape(A)} @ {shape(B)}")
    cols = list(zip(*B))
    return [[sum(map(mul, a, b)) for b in cols] for a in A]


def mat_copy(M):
    return [list(row) for row in M]


def mat_eq(A, B):
    return shape(A) == shape(B) and all(
        A[i][j] == B[i][j] for i in range(len(A)) for j in range(len(A[0]) if A else 0)
    )


# -- determinants ------------------------------------------------------------

def det(M):
    """Exact determinant over Z or Q, by fraction-free Bareiss elimination.

    A matrix of ints gives an int.  A matrix holding a Fraction has each
    row put over its common denominator; the integer numerators go through
    the same elimination, and the result is a Fraction: that determinant
    over the product of the row denominators.  Any entry that is neither
    an int nor a Fraction is a PreconditionError.
    """
    n, n2 = shape(M)
    if n != n2:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    if all(isinstance(x, int) for row in M for x in row):
        return _det_bareiss(M)
    _require_rational(M, "determinant")
    rows = _over_common_denominator(M)
    return Fraction(_det_bareiss([v for v, _ in rows]), prod(d for _, d in rows))


def _require_rational(M, what):
    for row in M:
        for x in row:
            if not isinstance(x, (int, Fraction)):
                raise PreconditionError(f"{what} entry {x!r} is not an int or a Fraction")


def _det_bareiss(M):
    n = len(M)
    A = mat_copy(M)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for r in range(k + 1, n):
                if A[r][k] != 0:
                    A[k], A[r] = A[r], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def det_mod2(M):
    """det(M) % 2 of an integer matrix, its entries read through as_int.

    Nothing in the library calls it; it stays for the benchmark tracer's
    det_mod2 span until that span is retired (ROADMAP item 8).
    """
    return det([[as_int(x) for x in row] for row in M]) % 2


# -- integer matrix pencils --------------------------------------------------

def combination(coefficients, mats):
    """The integer matrix sum(c_g * mats[g])."""
    m, n = shape(mats[0])
    pairs = list(zip(coefficients, mats))
    return [[sum(c * A[i][j] for c, A in pairs) for j in range(n)] for i in range(m)]


def det_polynomial(mats):
    """det(sum(c_g * mats[g])) as (int coefficient, exponent tuple) pairs.

    Fraction-free Bareiss elimination over integer polynomials in
    c0 ... c_{r-1}, each a map {exponent tuple: nonzero int} built by
    _int_pencil: every intermediate entry is a minor of the pencil,
    so each division is exact, and _poly_div checks that it is.  A pivot
    that is the zero polynomial is replaced by a later row; the zero
    polynomial (no pairs) means every member is singular.  The pairs come
    in ascending graded-lex order of their exponents, and 0 x 0 matrices
    give the constant 1, as det does.

    There must be at least one matrix, all square and of one size, with
    int or integral Fraction entries; anything else is a PreconditionError.
    """
    if not mats:
        raise PreconditionError("a matrix pencil needs at least one matrix")
    n = len(mats[0])
    if any(len(M) != n or any(len(row) != n for row in M) for M in mats):
        raise PreconditionError("pencil matrices must be square and of one size")
    A = _int_pencil(mats)
    if n == 0:
        return [(1, (0,) * len(mats))]
    negate = False
    prev = None
    for k in range(n - 1):
        if not A[k][k]:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    negate = not negate
                    break
            else:
                return []
        pivot_row = A[k]
        pivot = pivot_row[k]
        for A_row in A[k + 1:]:
            below = A_row[k]
            for j in range(k + 1, n):
                num = {}
                _add_product(num, A_row[j], pivot, 1)
                if below and pivot_row[j]:  # pencils are sparse
                    _add_product(num, below, pivot_row[j], -1)
                num = {mono: c for mono, c in num.items() if c}
                A_row[j] = num if prev is None or not num else _poly_div(num, prev)
        prev = pivot
    d = A[n - 1][n - 1]
    sign = -1 if negate else 1
    return [(sign * d[mono], mono) for mono in sorted(d, key=_grlex_key)]


def pullback_polynomials(mats, gram_y, gram_x):
    """The entries above the diagonal of P^T E_Y P - E_X, P = sum(c_g * mats[g]).

    One polynomial per entry (i, j), i < j, row by row, in det_polynomial's
    form, summed with _add_product from the integer polynomials of P and
    E_Y P.  For alternating E_Y and E_X they all vanish exactly when P
    pulls E_Y back to E_X.
    """
    const = (0,) * len(mats)
    P = _int_pencil(mats)
    EP = _int_pencil([matmul(gram_y, M) for M in mats])
    out = []
    for i, j in combinations(range(len(gram_x)), 2):
        acc = {const: -gram_x[i][j]}
        for P_row, EP_row in zip(P, EP):
            _add_product(acc, P_row[i], EP_row[j], 1)
        out.append([(acc[mono], mono) for mono in sorted(acc, key=_grlex_key) if acc[mono]])
    return out


def _int_pencil(mats):
    """sum(c_g * mats[g]) as a matrix of integer polynomials {unit exponent: int}."""
    units = [tuple(int(h == g) for h in range(len(mats))) for g in range(len(mats))]
    return [[{u: x for u, x in zip(units, map(as_int, entries)) if x} for entries in zip(*rows)]
            for rows in zip(*mats)]


def _formal_product(gens, P, K, scale):
    """P @ K / scale as FormalScalars over gens, P integer polynomials, K integers."""
    out = []
    for row in P:
        acc = [{} for _ in K[0]]
        _add_row_times(acc, row, K, 1)
        out.append([FormalScalar._trusted(gens, {mono: Fraction(c, scale)
                                                 for mono, c in a.items() if c}) for a in acc])
    return out


def period_identity_holds(L, M, px, py):
    """L @ P_X == P_Y @ M for an integer matrix M, over integer polynomials.

    L, P_X and P_Y come as monomial_flatten slices (d, polys): L = LS / dL,
    P_X = PX / dX and P_Y = PY / dY.  The identity times dL * dX * dY reads
    dY * LS @ PX == dL * dX * PY @ M, and is checked entry by entry.
    """
    (dL, LS), (dX, PX), (dY, PY) = L, px, py
    for L_row, PY_row in zip(LS, PY):
        acc = [{} for _ in M[0]]  # entry (i, j) of the difference, j by j
        for f, PX_row in zip(L_row, PX):
            if f:
                for a, q in zip(acc, PX_row):
                    if q:
                        _add_product(a, f, q, dY)
        _add_row_times(acc, PY_row, M, -dL * dX)
        if any(x for a in acc for x in a.values()):
            return False
    return True


def _add_product(acc, p, q, sign):
    """acc += sign * p * q for integer polynomials {exponent tuple: int}."""
    get = acc.get
    q_items = q.items()
    for m1, c1 in p.items():
        c1 *= sign
        for m2, c2 in q_items:
            mono = tuple(map(add, m1, m2))
            acc[mono] = get(mono, 0) + c1 * c2


def _add_row_times(acc, row, K, scale):
    """acc[j] += scale * sum(row[r] * K[r][j]) for integer polynomials row[r]
    and an integer matrix K."""
    for p, K_row in zip(row, K):
        if p:
            for a, c in zip(acc, K_row):
                if c:
                    k = scale * c
                    for mono, x in p.items():
                        a[mono] = a.get(mono, 0) + k * x


def _poly_div(f, g):
    """The quotient f / g of integer polynomials; ValueError unless g divides f.

    Each step divides the graded-lex leading term of the remainder by that
    of g, which must leave a monomial and an integer, and subtracts the
    quotient term times g.  The terms of the remainder wait in a heap keyed
    so that the largest monomial comes out first.
    """
    g_mono = max(g, key=_grlex_key)
    g_coeff = g[g_mono]
    g_rest = [(m, c) for m, c in g.items() if m != g_mono]
    rem = dict(f)
    get = rem.get
    heap = [(-sum(m), tuple(map(neg, m)), m) for m in rem]
    heapify(heap)
    quotient = {}
    while rem:
        mono = heappop(heap)[2]
        coeff = rem.pop(mono, 0)
        if not coeff:  # a stale entry: the term cancelled
            continue
        diff = tuple(map(sub, mono, g_mono))
        q, remainder = divmod(coeff, g_coeff)
        if remainder or min(diff) < 0:
            raise ValueError("the divisor does not divide the polynomial")
        quotient[diff] = q
        for m, c in g_rest:  # rem -= q * x^diff * (g - leading term)
            m = tuple(map(add, diff, m))
            old = get(m)
            if old is None:
                rem[m] = -q * c
                heappush(heap, (-sum(m), tuple(map(neg, m)), m))
            elif old == q * c:
                del rem[m]
            else:
                rem[m] = old - q * c
    return quotient


# -- Hermite and Smith forms -------------------------------------------------

def as_int(x):
    """An int or integral Fraction entry as an int; anything else is refused."""
    if type(x) is int:
        return x
    if isinstance(x, (int, Fraction)) and x.denominator == 1:
        return int(x)
    raise PreconditionError(f"integer matrix entry {x!r} is not an integer")


def row_hnf(A):
    """(H, U) with H = U @ A in canonical row Hermite form.

    Pivots are positive, strictly right-moving, and entries above each
    pivot are reduced into [0, pivot).  Pivot selection favours minimal
    absolute value to keep intermediate entries small.
    """
    m, n = shape(A)
    H = [[as_int(x) for x in row] for row in A]
    U = identity(m)
    pr = 0
    for col in range(n):
        if pr >= m:
            break
        while True:
            live = [r for r in range(pr, m) if H[r][col] != 0]
            if not live:
                break
            piv = min(live, key=lambda r: abs(H[r][col]))
            if piv != pr:
                H[pr], H[piv] = H[piv], H[pr]
                U[pr], U[piv] = U[piv], U[pr]
            done = True
            for r in range(pr + 1, m):
                if H[r][col] != 0:
                    q = H[r][col] // H[pr][col]
                    if q:
                        for k in range(n):
                            H[r][k] -= q * H[pr][k]
                        for k in range(m):
                            U[r][k] -= q * U[pr][k]
                    if H[r][col] != 0:
                        done = False
            if done:
                break
        if H[pr][col] == 0:
            continue
        if H[pr][col] < 0:
            H[pr] = [-x for x in H[pr]]
            U[pr] = [-x for x in U[pr]]
        p = H[pr][col]
        for r in range(pr):
            q = H[r][col] // p
            if q:
                for k in range(n):
                    H[r][k] -= q * H[pr][k]
                for k in range(m):
                    U[r][k] -= q * U[pr][k]
        pr += 1
    return H, U


def hnf(M):
    """(H, U) with H = M @ U in canonical column Hermite form."""
    Ht, Ut = row_hnf(transpose(M))
    return transpose(Ht), transpose(Ut)


def rank(M):
    """Rank of an integer matrix: its column count less its kernel's rank."""
    return shape(M)[1] - len(int_kernel(M))


def int_kernel(M):
    """Basis of the integer kernel {x : M x = 0}, as a list of columns.

    M is a dense matrix, but only its nonzeros are worked on.  Each column
    is held as a sparse map {row: entry} together with a sparse map
    recording it as a combination of the columns of M.  Row by row, the
    columns nonzero in that row are reduced by the one of least absolute
    value until one is left; it becomes the row's pivot and is dropped.
    These unimodular gcd steps leave the columns that never become a pivot
    zero, and their combinations span the kernel, which is saturated.  The
    basis returned is the canonical column Hermite basis of that lattice,
    so it does not depend on the order of the steps.
    """
    m, n = shape(M)
    cols = [{} for _ in range(n)]
    # holders[i]: the live columns nonzero in row i, and perhaps some others
    holders = [set() for _ in range(m)]
    for i, row in enumerate(M):
        # zero entries need no check: only a nonzero can be non-integral
        for j in compress(range(n), row):
            cols[j][i] = as_int(row[j])
            holders[i].add(j)
    combos = [{j: 1} for j in range(n)]
    live = set(range(n))
    for i in range(m):
        hit = [j for j in holders[i] if j in live and i in cols[j]]
        while len(hit) > 1:
            p = min(hit, key=lambda j: abs(cols[j][i]))
            pivot = cols[p][i]
            rest = [p]
            for j in hit:
                if j != p:
                    q = -(cols[j][i] // pivot)
                    _add_multiple(cols[j], cols[p], q)
                    _add_multiple(combos[j], combos[p], q)
                    for r in cols[p]:
                        holders[r].add(j)
                    if i in cols[j]:
                        rest.append(j)
            hit = rest
        if hit:
            live.discard(hit[0])
    if not live:
        return []
    K, _ = hnf([[combos[j].get(i, 0) for j in live] for i in range(n)])
    return [[K[i][j] for i in range(n)] for j in range(len(live))]


def _add_multiple(dst, src, q):
    """dst += q * src for sparse vectors {index: nonzero int}, q != 0."""
    for k, v in src.items():
        x = dst.get(k, 0) + q * v
        if x:
            dst[k] = x
        else:
            del dst[k]


def snf(M):
    """(S, U, V) with S = U @ M @ V in Smith normal form, s_i | s_{i+1} >= 0."""
    m, n = shape(M)
    S = [[as_int(x) for x in row] for row in M]
    U = identity(m)
    V = identity(n)

    def add_row(src, dst, q):  # row dst -= q * row src
        for k in range(n):
            S[dst][k] -= q * S[src][k]
        for k in range(m):
            U[dst][k] -= q * U[src][k]

    def add_col(src, dst, q):  # col dst -= q * col src
        for r in range(m):
            S[r][dst] -= q * S[r][src]
        for r in range(n):
            V[r][dst] -= q * V[r][src]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if S[i][j] and (best is None or abs(S[i][j]) < abs(S[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        if i != t:
            S[t], S[i] = S[i], S[t]
            U[t], U[i] = U[i], U[t]
        if j != t:
            for r in range(m):
                S[r][t], S[r][j] = S[r][j], S[r][t]
            for r in range(n):
                V[r][t], V[r][j] = V[r][j], V[r][t]
        dirty = False
        for r in range(t + 1, m):
            if S[r][t]:
                add_row(t, r, S[r][t] // S[t][t])
                if S[r][t]:
                    dirty = True
        for c in range(t + 1, n):
            if S[t][c]:
                add_col(t, c, S[t][c] // S[t][t])
                if S[t][c]:
                    dirty = True
        if dirty:
            continue
        d = S[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if S[i][j] % d:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, -1)  # mix the offending row into row t
            continue
        if S[t][t] < 0:
            for k in range(n):
                S[t][k] = -S[t][k]
            for k in range(m):
                U[t][k] = -U[t][k]
        t += 1
    return S, U, V


def elementary_divisors(M):
    """Nonzero diagonal of the Smith form."""
    S, _, _ = snf(M)
    return [S[i][i] for i in range(min(shape(S))) if S[i][i] != 0]


def saturate_columns(M):
    """Basis of the saturation (Q-span of columns) intersected with Z^m.

    The saturation is the kernel of the left kernel: the integer vectors
    that every y with y^T M = 0 annihilates.  Both kernels come from
    int_kernel, so the basis is returned as an m x r matrix in canonical
    column Hermite form; r is the rank of M.  An empty left kernel gives
    identity(m), and the zero matrix saturates to an m x 0 matrix.
    """
    m, n = shape(M)
    left = int_kernel(transpose(M)) if n else identity(m)
    if not left:
        return identity(m)
    basis = int_kernel(left)
    return [[col[i] for col in basis] for i in range(m)]


# -- rational elimination ----------------------------------------------------

def int_inverse(M):
    """(adj(M), det(M)) of a square integer matrix, M @ adj == det * I, from
    _gauss_jordan on [M | I] (ValueError if singular); entries go through as_int.
    """
    n, n2 = shape(M)
    if n != n2:
        raise ValueError("inverse of a non-square matrix")
    rows = [[as_int(x) for x in row] + [int(i == j) for j in range(n)]
            for i, row in enumerate(M)]
    pivots, d, sign = _gauss_jordan(rows, n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return [[sign * x for x in row[n:]] for row in rows], sign * d


def rat_inv(M):
    """Exact inverse of a square matrix over Q (ValueError if singular).

    With row i over its common denominator e_i, M = diag(e)^-1 M' and the
    inverse is adj(M') diag(e) / det(M'), all Fractions.  Any entry that
    is neither an int nor a Fraction is a PreconditionError.
    """
    if len(M) != shape(M)[1]:
        raise ValueError("inverse of a non-square matrix")
    _require_rational(M, "inverse")
    rows = _over_common_denominator(M)
    adj, d = int_inverse([v for v, _ in rows])
    scales = [e for _, e in rows]
    return [[Fraction(x * e, d) for x, e in zip(row, scales)] for row in adj]


def rat_solve(A, b):
    """One exact solution x of A x = b over Q, or None if inconsistent.

    A may be rectangular.  The rows of [A | b], each over its common
    denominator, go through _gauss_jordan; a row without a pivot and with a
    nonzero right-hand side means no solution.  Free variables are zero,
    x = X / d (d the last pivot), and A' X = d b' is verified on all rows.
    Entries that are not ints or Fractions are a PreconditionError.
    """
    m, n = shape(A)
    if len(b) != m:
        raise ValueError("dimension mismatch")
    _require_rational(A, "system")
    _require_rational([b], "system")
    scaled = [v for v, _ in _over_common_denominator([[*row, c] for row, c in zip(A, b)])]
    rows = [list(v) for v in scaled]
    pivots, d, _ = _gauss_jordan(rows, n)
    if any(row[n] for row in rows[len(pivots):]):
        return None
    X = [0] * n
    for row, c in zip(rows, pivots):
        X[c] = row[n]
    # paranoia: verify (cheap at these sizes, catches elimination slips)
    if any(sum(map(mul, v, X)) != d * v[n] for v in scaled):
        return None
    return [Fraction(x, d) for x in X]


def _divide_exactly(M, d):
    """The integer matrix M / d, or None unless d divides every entry."""
    if any(x % d for row in M for x in row):
        return None
    return [[x // d for x in row] for row in M]


def _gauss_jordan(rows, n):
    """Fraction-free Gauss-Jordan on integer rows, in place, over their first
    n columns; returns (pivot columns, last pivot d, sign of the row swaps).

    The pivot p, the first nonzero at or below the next pivot row, stays;
    every other row becomes (p * row - f * pivot row) / prev, f its entry
    in the pivot column, prev the previous pivot.  Each entry is a minor
    (Bareiss, Math. Comp. 22, 1968), so the division is exact, and each
    row ends as d times the reduced row echelon form over Fractions.
    """
    m = len(rows)
    pivots = []
    prev = sign = 1
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        pivot_row = rows[r]
        p = pivot_row[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [(p * a - f * q) // prev for a, q in zip(row, pivot_row)]
            elif i != r and p != prev:
                rows[i] = [p * a // prev for a in row]
        pivots.append(c)
        prev = p
    return pivots, prev, sign


# -- symplectic reduction ----------------------------------------------------

def symplectic_basis(E):
    """Bring an alternating nondegenerate integer form to type shape.

    Returns (U, D) with U unimodular and U^T E U = [[0, diag(D)], [-diag(D), 0]],
    D a positive divisibility chain d_1 | d_2 | ... | d_n.  Raises
    PreconditionError if E is not alternating with nonzero determinant of
    even size.

    Pair by pair, on a basis B of the part of Z^m not yet split off: the
    snf of the form on B gives x and y in B's span with E(x, y) = d, the
    gcd of the form's entries there, and int_kernel gives the saturated
    E-orthogonal complement of <x, y> in that span, the next B.  As d
    divides every pairing on B, the span is <x, y> plus that complement,
    so U is unimodular and D a divisibility chain by construction.
    """
    m, m2 = shape(E)
    if m != m2 or m % 2:
        raise PreconditionError("alternating form must be square of even size")
    for i in range(m):
        for j in range(m):
            if E[i][j] != -E[j][i]:
                raise PreconditionError("form is not alternating")
    if det(E) == 0:
        raise PreconditionError("form is degenerate")
    B = identity(m)  # basis vectors as rows
    xs, ys, ds = [], [], []
    while B:
        EB = matmul(E, transpose(B))
        S, P, Q = snf(matmul(B, EB))
        x = matmul(P[:1], B)[0]
        y = matmul([[row[0] for row in Q]], B)[0]
        xs.append(x)
        ys.append(y)
        ds.append(S[0][0])
        rest = int_kernel(matmul([x, y], EB))
        B = matmul(rest, B) if rest else []
    n = m // 2
    U = transpose(xs + ys)
    check = matmul(transpose(U), matmul(E, U))
    expected = zeros(m, m)
    for k in range(n):
        expected[k][n + k] = ds[k]
        expected[n + k][k] = -ds[k]
    if not mat_eq(check, expected):
        raise AssertionError("symplectic reduction postcondition failed")
    return U, ds


# -- span comparison on formal matrices ---------------------------------------

def flatten_to_int(*matrices):
    """Flatten scalar matrices over shared monomials and one common scale.

    All matrices must have the same number of rows (PreconditionError
    otherwise) and their entries one generator set
    (GeneratorMismatchError otherwise).  The matrices, side by side, go
    through one monomial_flatten, so a single common denominator scales
    every input and lattice relations survive.  Rows of each result are
    indexed by (matrix row, monomial), monomials in ascending graded-lex
    order, and every cell that no term reaches is 0.  When no input has a
    nonzero entry each output has max(rows, 1) zero rows.  Returns the
    list of integer matrices.
    """
    if not matrices:
        return []
    nrows = len(matrices[0])
    if any(len(M) != nrows for M in matrices):
        raise PreconditionError("flattened matrices must have the same number of rows")
    combined = [[x for M in matrices for x in M[i]] for i in range(nrows)]
    if len({x.gens for row in combined for x in row}) > 1:
        raise GeneratorMismatchError("matrix mixes generator sets")
    _, P = monomial_flatten(combined)
    monomials = sorted({mono for row in P for p in row for mono in p}, key=_grlex_key)
    index = {mono: k for k, mono in enumerate(monomials)}
    count = len(index)
    flat = zeros(nrows * count or max(nrows, 1), len(combined[0]) if nrows else 0)
    for i, row in enumerate(P):
        for j, p in enumerate(row):
            for mono, c in p.items():
                flat[i * count + index[mono]][j] = c
    outs, offset = [], 0
    for M in matrices:
        w = len(M[0]) if M else 0
        outs.append([r[offset : offset + w] for r in flat])
        offset += w
    return outs


def span_equal(A, B, gens: GeneratorSet | None = None) -> bool:
    """Do the columns of A and B generate the same lattice?

    Entries may be formal scalars, ints or Fractions; an int or Fraction
    is taken as a constant over the generator set of the first formal
    entry, or over ``gens`` when there is none.  Both sides are flattened
    together by flatten_to_int and compared by canonical column Hermite
    forms.  Each side must have full column rank, read from its Hermite
    form, otherwise RankDeficiencyError is raised, for the left side first.
    """
    if len(A) != len(B):
        raise PreconditionError("span comparison of matrices with different row counts")
    found = next((x.gens for M in (A, B) for row in M for x in row
                  if isinstance(x, FormalScalar)), gens or GeneratorSet(()))
    ZA, ZB = flatten_to_int(*([[x if isinstance(x, FormalScalar) else found.constant(x)
                                for x in row] for row in M] for M in (A, B)))
    return _full_rank_hermite_form(ZA, "left") == _full_rank_hermite_form(ZB, "right")


def _full_rank_hermite_form(Z, side):
    """The column Hermite form of Z, whose nonzero columns count its rank;
    RankDeficiencyError naming ``side`` unless that is every column."""
    H, _ = hnf(Z)
    n = shape(Z)[1]
    if sum(map(any, zip(*H))) != n:
        raise RankDeficiencyError(
            f"{side} matrix columns are linearly dependent (rank < {n})"
        )
    return H
