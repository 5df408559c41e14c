"""Exact linear algebra over Z and Q on plain list-of-list matrices; no floats.

Rational matrices are worked on as integers over one denominator per
row, and Fractions are built only for results.  Integer polynomials key
their terms by monomials packed into ints, scalars._packing's one layout:
a product of monomials is a sum of ints, graded-lex order that of the
ints.  det_polynomial and pullback_polynomials run on one pencil of
integer maps, fields sized to its degree, and the exact divisions test
divisibility on guard bits.  scalars.monomial_flatten puts a period
matrix over one common denominator, in 33-bit fields, a slice (d, P),
once per torus, kept on it (PolarisedTorus.period_slice); only
_render_slice and lattice_det unpack it.  Every integer system on the
slices is one {X : A @ X @ B = 0}, built and solved by bilinear_kernel:
the Hom module and the admissible family.  _slice_product gives the
kernel basis K of PolarisedTorus.right_frame and a quotient's periods.
_render_slice turns a slice back into FormalScalars, for a quotient's
periods and for HomGenerator.analytic_rep.  One check,
period_identity_holds, verifies L @ P_X == P_Y @ M on those slices (an
integer L enters as constant_slices) for every Hom generator, every
admissible family element, every pp_search witness and every display
frame of the demos.  lattice_det reads a period slice at two fixed
integer points of the generators, drawn from ``scattered``, as one
integer determinant, once per torus (PolarisedTorus.lattice_det): it is
nonzero where the periods span a lattice, and the values of two tori
give the constant kappa of det M = kappa * det(F)**2 for the maps
between them (parallel.kappa).
flatten_to_int lays one monomial_flatten of several matrices out as
dense integer matrices for rat_solve, which solves all of a frame's
vectors, its right-hand sides, in one elimination.  matmul sums entry by
entry in the operands' own arithmetic.  Matrices are dense lists of
rows, except the sparse rows {unknown: int} that bilinear_kernel builds
and the sparse kernel vectors {unknown: int} that _kernel_maps gives back
for them, after dropping the rows that pin an unknown to 0; every
result is canonical.

Conventions:
  * Five eliminations remain, one per job: fraction-free Bareiss for det
    over Z and Q, and over integer polynomials for det_polynomial; one
    fraction-free Gauss-Jordan on integer rows (_gauss_jordan) for
    rat_solve, all right-hand sides at once, and int_inverse, the adjugate
    and determinant; one unimodular column reduction on sparse columns
    (_column_echelon) for hnf, saturate_columns, int_kernel and
    _kernel_maps; snf, for elementary_divisors.  symplectic_basis is
    built from snf, int_kernel and matmul, and det_mod2 from det.
  * Only _over_common_denominator clears rational rows.  rat_inverse gives
    M^-1 = N / d as (N, d) to PolarisedTorus.right_frame and to
    QuotientResult, which keep it for all later calls; rat_inv is its
    Fraction view.
  * hnf(M) returns (H, U) with H = M @ U, U unimodular, H the canonical
    column Hermite form (pivots positive, entries left of a pivot reduced,
    zero columns trailing).
  * snf(M) returns (S, U, V) with S = U @ M @ V and s_i | s_{i+1}.
  * symplectic_basis(E) returns (U, D) with U^T E U = [[0, D], [-D, 0]].
  * The integer routines (hnf, int_kernel, snf and the pencils) read
    entries through as_int: ints and integral Fractions are accepted, any
    other entry (a bool too) is a PreconditionError; det, rat_inverse and
    rat_solve refuse all but ints and Fractions, bools too.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations, compress, islice
from math import lcm, prod
from operator import mul

from .errors import GeneratorMismatchError, PreconditionError
from .scalars import FormalScalar, _packing, _slice_packing, monomial_flatten


# -- basic matrix helpers ----------------------------------------------------

def shape(M):
    """(rows, columns); rows of different lengths are a PreconditionError."""
    if len(set(map(len, M))) > 1:
        raise PreconditionError("matrix rows have different lengths")
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
    an int nor a Fraction, or is a bool, is a PreconditionError.
    """
    n, n2 = shape(M)
    if n != n2:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    if all(type(x) is int for row in M for x in row):
        return _det_bareiss(M)
    _require_rational(M, "determinant")
    rows = _over_common_denominator(M)
    return Fraction(_det_bareiss([v for v, _ in rows]), prod(d for _, d in rows))


def _require_rational(M, what):
    for row in M:
        for x in row:
            if not isinstance(x, (int, Fraction)) or isinstance(x, bool):
                raise PreconditionError(f"{what} entry {x!r} is not an int or a Fraction")


def _det_bareiss(M):
    n = len(M)
    A = [list(row) for row in M]
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
    return [[sum(map(mul, coefficients, entries)) for entries in zip(*rows)]
            for rows in zip(*mats)]


def det_polynomial(mats):
    """det(sum(c_g * mats[g])) as (int coefficient, exponent tuple) pairs.

    Fraction-free Bareiss elimination over integer polynomials in
    c0 ... c_{r-1}, each a map {packed monomial: nonzero int} (_packing)
    built by _int_pencil: every intermediate entry is a minor of the
    pencil, so each division is exact, and _poly_div checks that it is.
    A pivot that is the zero polynomial is replaced by a later row; the
    zero polynomial (no pairs) means every member is singular.  Unpacked
    once, the pairs come in ascending graded-lex order of their exponents,
    and 0 x 0 matrices give the constant 1, as det does.

    There must be at least one matrix, all square and of one size, with
    int or integral Fraction entries; anything else is a PreconditionError.
    """
    if not mats:
        raise PreconditionError("a matrix pencil needs at least one matrix")
    n = len(mats[0])
    if any(len(M) != n or any(len(row) != n for row in M) for M in mats):
        raise PreconditionError("pencil matrices must be square and of one size")
    A, unpack, guard = _int_pencil(mats, 2 * n)  # numerators: two minors' products
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
                a, b = A_row[j], below and pivot_row[j]
                if not (a or b):  # pencils are sparse
                    continue
                num = {}
                _add_packed_product(num, a, pivot, 1)
                if b:
                    _add_packed_product(num, below, b, -1)
                num = {mono: c for mono, c in num.items() if c}
                A_row[j] = num if prev is None or not num else _poly_div(num, prev, guard)
        prev = pivot
    d = A[n - 1][n - 1]
    sign = -1 if negate else 1
    return [(sign * d[mono], unpack(mono)) for mono in sorted(d)]


def pullback_polynomials(mats, gram_y, gram_x):
    """The entries above the diagonal of P^T E_Y P - E_X, P = sum(c_g * mats[g]).

    One polynomial per entry (i, j), i < j, row by row, in det_polynomial's
    form, summed from the packed polynomials of P and E_Y P.  For alternating
    E_Y and E_X they all vanish exactly when P pulls E_Y back to E_X.
    """
    P, unpack, _ = _int_pencil(mats, 2)
    EP, _, _ = _int_pencil([matmul(gram_y, M) for M in mats], 2)
    out = []
    for i, j in combinations(range(len(gram_x)), 2):
        acc = {0: -gram_x[i][j]}  # 0 packs the constant monomial
        for P_row, EP_row in zip(P, EP):
            _add_packed_product(acc, P_row[i], EP_row[j], 1)
        out.append([(acc[mono], unpack(mono)) for mono in sorted(acc) if acc[mono]])
    return out


def _int_pencil(mats, degree):
    """(sum(c_g * mats[g]) as integer polynomials {packed monomial: int},
    unpack, guard), packed by _packing(len(mats), degree)."""
    units, unpack, guard = _packing(len(mats), degree)
    return ([[{u: x for u, x in zip(units, map(as_int, entries)) if x}
              for entries in zip(*rows)] for rows in zip(*mats)], unpack, guard)


def _slice_product(P, K):
    """P @ K for integer polynomials P and an integer matrix K, over the
    nonzero entries of K, for a quotient's periods and the kernel basis of
    PolarisedTorus.right_frame; a tuple of rows of integer polynomials
    without zero coefficients."""
    out = []
    for row in P:
        acc = [{} for _ in K[0]]
        for p, K_row in zip(row, K):
            if p:
                for a, c in zip(acc, K_row):
                    if c:
                        for mono, x in p.items():
                            a[mono] = a.get(mono, 0) + c * x
        out.append(tuple({mono: x for mono, x in a.items() if x} for a in acc))
    return tuple(out)


def _render_slice(gens, d, P):
    """The slice P / d, integer polynomials over one denominator, as rows of
    FormalScalars over gens."""
    unpack = _slice_packing(len(gens))[1]
    return tuple(tuple(FormalScalar._trusted(gens, {unpack(mono): Fraction(c, d)
                                                    for mono, c in p.items() if c})
                       for p in row) for row in P)


def constant_slices(M):
    """An integer matrix as a monomial_flatten slice: constant integer
    polynomials (0 packs the constant monomial) over the denominator 1."""
    return 1, [[{0: x} if x else {} for x in row] for row in M]


def period_identity_holds(L, M, px, py):
    """L @ P_X == P_Y @ M for an integer matrix M, over integer polynomials.

    L, P_X and P_Y come as monomial_flatten slices (d, polys): L = LS / dL,
    P_X = PX / dX and P_Y = PY / dY.  The identity times dL * dX * dY reads
    dY * LS @ PX == dL * dX * PY @ M: the difference, summed over the nonzero
    entries of LS and M only in one map keyed by (row, column, monomial),
    is 0 in every value (a slice's coefficient may be 0).  Shapes that do
    not fit make it False.
    """
    (dL, LS), (dX, PX), (dY, PY) = L, px, py
    w = len(PX[0]) if PX else 0
    if not (len(LS) == len(PY) and set(map(len, LS)) <= {len(PX)}
            and set(map(len, PY)) <= {len(M)} and set(map(len, (*M, *PX))) <= {w}):
        return False
    acc = {}
    get = acc.get
    for i, L_row in enumerate(LS):
        for t in compress(range(len(L_row)), L_row):
            f, PX_row = L_row[t].items(), PX[t]
            for j in compress(range(w), PX_row):
                q = PX_row[j].items()
                for m1, c1 in f:
                    c1 *= dY
                    for m2, c2 in q:
                        key = (i, j, m1 + m2)
                        acc[key] = get(key, 0) + c1 * c2
    nonzero = [[(j, -dL * dX * row[j]) for j in compress(range(w), row)] for row in M]
    for i, PY_row in enumerate(PY):
        for r in compress(range(len(PY_row)), PY_row):
            if nonzero[r]:
                p = PY_row[r].items()
                for j, x in nonzero[r]:
                    for mono, y in p:
                        key = (i, j, mono)
                        acc[key] = get(key, 0) + x * y
    return not any(acc.values())


def lattice_det(P, k):
    """det [P(z); P(w)] for the integer polynomials P of an n x 2n period
    slice over k generators, read at two fixed integer points z and w of the
    generators, drawn from ``scattered``: the same two for every slice over
    one generator set.

    Where it is nonzero, [P(z); P(w)] is nonsingular for independent generic
    z and w, so also at w = conj(z): the 2n periods, at a general point, are
    linearly independent over R and span a lattice.  Periods that are
    dependent over Q give 0; periods that span a lattice but meet a zero at
    these points are only sent down the slower route by the callers.  Two
    tori's values give the kappa of their maps (parallel.kappa).
    """
    values, unpack = scattered(k + 1, 50), _slice_packing(k)[1]
    z, w = tuple(islice(values, k)), tuple(islice(values, k))
    return det([[_evaluate_at(p, point, unpack) for p in row] for point in (z, w) for row in P])


def scattered(seed, spread):
    """An endless fixed sequence of integers in -spread .. spread: the
    Park-Miller minimal standard generator from a seed in 1 .. 2**31 - 2,
    each value reduced."""
    while True:
        seed = seed * 16807 % 2147483647
        yield seed % (2 * spread + 1) - spread


def _evaluate_at(p, point, unpack):
    """The integer polynomial p {packed monomial: int} at an integer point."""
    total = 0
    for mono, c in p.items():
        for x, e in zip(point, unpack(mono)):
            if e:
                c *= x ** e
        total += c
    return total


def _add_packed_product(acc, p, q, sign):
    """acc += sign * p * q for integer polynomials {packed monomial: int}."""
    get = acc.get
    q_items = q.items()
    for m1, c1 in p.items():
        c1 *= sign
        for m2, c2 in q_items:
            mono = m1 + m2
            acc[mono] = get(mono, 0) + c1 * c2


def _poly_div(f, g, guard):
    """The quotient f / g of packed polynomials; ValueError unless g divides f.

    Each step divides the leading (largest) term of the remainder by that
    of g, which must leave an integer and a monomial, the latter tested on
    _packing's guard bits, and subtracts the quotient term times g.  The
    remainder's terms wait in a heap of negated monomials.
    """
    g_mono = max(g)
    g_coeff = g[g_mono]
    g_rest = [(m, c) for m, c in g.items() if m != g_mono]
    rem = dict(f)
    get = rem.get
    heap = [-m for m in rem]
    heapify(heap)
    quotient = {}
    while rem:
        mono = -heappop(heap)
        coeff = rem.pop(mono, 0)
        if not coeff:  # a stale entry: the term cancelled
            continue
        q, remainder = divmod(coeff, g_coeff)
        if remainder or ((mono | guard) - g_mono) & guard != guard:
            raise ValueError("the divisor does not divide the polynomial")
        diff = mono - g_mono
        quotient[diff] = q
        for m, c in g_rest:  # rem -= q * x^diff * (g - leading term)
            m += diff
            old = get(m)
            if old is None:
                rem[m] = -q * c
                heappush(heap, -m)
            elif old == q * c:
                del rem[m]
            else:
                rem[m] = old - q * c
    return quotient


# -- Hermite and Smith forms -------------------------------------------------

def as_int(x):
    """An int or integral Fraction entry as an int; anything else, bools too, is refused."""
    if type(x) is int:
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool) and x.denominator == 1:
        return int(x)
    raise PreconditionError(f"integer matrix entry {x!r} is not an integer")


def _column_echelon(cols, m, combos=None):
    """(pivots, zero): one unimodular column reduction of sparse columns, in place.

    cols are maps {row: nonzero int} over m rows, and combos, if given,
    maps recording each as a combination of the original columns.  Row by
    row, the columns nonzero in that row are reduced by the one of least
    absolute value until one is left; it becomes the row's pivot and is
    dropped.  pivots lists (row, column) in row order, and each pivot
    column is zero above its row; zero lists, ascending, the columns that
    never became a pivot, which these gcd steps leave zero.
    """
    # holders[i]: the live columns nonzero in row i, and perhaps some others
    holders = [set() for _ in range(m)]
    for j, col in enumerate(cols):
        for i in col:
            holders[i].add(j)
    live = set(range(len(cols)))
    pivots = []
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
                    if combos:
                        _add_multiple(combos[j], combos[p], q)
                    for r in cols[p]:
                        holders[r].add(j)
                    if i in cols[j]:
                        rest.append(j)
            hit = rest
        if hit:
            live.discard(hit[0])
            pivots.append((i, hit[0]))
    return pivots, sorted(live)


def _hermite(cols, m, combos=None):
    """The column order of the canonical column Hermite form of sparse columns:
    after _column_echelon each pivot is made positive and the entries left of
    it reduced into [0, pivot) by its column, zero above its row; combos follow.
    The pivot columns come in row order, then the zero columns."""
    pivots, zero = _column_echelon(cols, m, combos)
    for k, (i, p) in enumerate(pivots):
        if cols[p][i] < 0:
            cols[p] = {r: -x for r, x in cols[p].items()}
            if combos:
                combos[p] = {r: -x for r, x in combos[p].items()}
        pivot = cols[p][i]
        for _, j in pivots[:k]:
            q = -(cols[j].get(i, 0) // pivot)
            if q:
                _add_multiple(cols[j], cols[p], q)
                if combos:
                    _add_multiple(combos[j], combos[p], q)
    return [p for _, p in pivots] + zero


def _columns(rows, n):
    """The n columns {row: int} of rows {column: int}; zero entries are dropped."""
    cols = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            if x:
                cols[j][i] = x
    return cols


def _dense_rows(M):
    """The rows of a dense matrix as maps {column: int}, nonzeros through as_int."""
    n = shape(M)[1]
    return [{j: as_int(row[j]) for j in compress(range(n), row)} for row in M]


def hnf(M):
    """(H, U) with H = M @ U in canonical column Hermite form (_hermite), U
    unimodular; H keeps M's row count when M has no column."""
    m, n = shape(M)
    cols, combos = _columns(_dense_rows(M), n), [{j: 1} for j in range(n)]
    order = _hermite(cols, m, combos)
    return ([[cols[j].get(i, 0) for j in order] for i in range(m)],
            [[combos[j].get(r, 0) for j in order] for r in range(n)])


def int_kernel(M):
    """Basis of the integer kernel {x : M x = 0}, as a list of columns.

    The columns that _column_echelon reduces to zero are combinations of
    the columns of M spanning the kernel, which is saturated since the
    steps are unimodular.  The basis returned is the canonical column
    Hermite basis of that lattice, so it does not depend on the order of
    the steps.  Its first s rows, for any s, are still in that form (hnf
    returns them with U = I), the Hermite basis of the kernel's projection:
    admissible_family and symplectic_complement read their bases off them.
    """
    n = shape(M)[1]
    return [[v.get(i, 0) for i in range(n)] for v in _kernel_maps(_dense_rows(M), n)]


def bilinear_kernel(A, index, B, n):
    """The Hermite basis of {X : A @ X @ B = 0} in n integer unknowns, as
    maps {unknown: nonzero int} (_kernel_maps).

    A and B are tables of integer polynomials {packed monomial: int}, as
    period slices are (a coefficient may be 0); index[k][l] is the unknown
    of entry (k, l) of X, or None where X is 0, and entries may share one,
    as a symmetric matrix's do.  Each monomial of each entry of A @ X @ B
    gives one sparse row, summed over the nonzero entries of A and B only.
    For 2x = y, and for x = z from [1, -1] @ [[x, y], [y, z]] @ [1 ; 1]
    (0 packs the constant monomial):

    >>> bilinear_kernel([[{0: 2}, {0: -1}]], [[0], [1]], [[{0: 1}]], 2)
    [{0: 1, 1: 2}]
    >>> K = bilinear_kernel([[{0: 1}, {0: -1}]], [[0, 1], [1, 2]], [[{0: 1}], [{0: 1}]], 3)
    >>> [[v.get(u, 0) for u in range(3)] for v in K]
    [[1, 0, 1], [0, 1, 0]]
    """
    # the terms (l, monomial, coefficient) of each column of B, and
    # (monomial, coefficient, row k of index) of each row of A
    B_cols = [[(l, m2, c2) for l, b in enumerate(col) if b for m2, c2 in b.items()]
              for col in zip(*B)]
    rows = []
    for A_row in A:
        terms = [(m1, c1, X_row) for a, X_row in zip(A_row, index) if a for m1, c1 in a.items()]
        for B_col in B_cols:
            acc = {}  # monomial: its row {unknown: int} in entry (i, j)
            for m1, c1, X_row in terms:
                for l, m2, c2 in B_col:
                    u = X_row[l]
                    if u is not None:
                        row = acc.setdefault(m1 + m2, {})
                        row[u] = row.get(u, 0) + c1 * c2
            rows += acc.values()
    return _kernel_maps(rows, n)


def _kernel_maps(rows, n):
    """The Hermite basis of int_kernel of the rows {column: int}, a list, over
    n columns, as maps {index: nonzero int}, for bilinear_kernel and
    int_kernel; the Hermite step tracks no U.  Until none is left, a
    row with one live entry, nonzero and not pinned, pins that unknown to 0
    and is dropped; the echelon and the Hermite step run on the rest, in
    index order, and the canonical basis is mapped back, 0 where pinned.
    """
    pinned, count = set(), None
    while count != len(pinned):
        count, kept = len(pinned), []
        for row in rows:
            live = None
            for j, x in row.items():
                if x and j not in pinned:
                    if live is not None:  # a second live entry: the row stays
                        kept.append(row)
                        break
                    live = j
            else:
                if live is not None:
                    pinned.add(live)
        rows = kept
    free = [j for j in range(n) if j not in pinned]
    cols, combos = _columns(rows, n), [{k: 1} for k in range(len(free))]
    basis = [combos[k] for k in _column_echelon([cols[j] for j in free], len(rows), combos)[1]]
    return [{free[k]: x for k, x in basis[b].items()} for b in _hermite(basis, len(free))]


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


def rat_inverse(M):
    """(N, d) with M^-1 = N / d, N an integer matrix, for a square matrix
    over Q (ValueError if singular).  With row i over its common denominator
    e_i, M = diag(e)^-1 M' and N / d = adj(M') diag(e) / det(M').  Any entry
    that is neither an int nor a Fraction is a PreconditionError.
    """
    if len(M) != shape(M)[1]:
        raise ValueError("inverse of a non-square matrix")
    _require_rational(M, "inverse")
    rows = _over_common_denominator(M)
    adj, d = int_inverse([v for v, _ in rows])
    return [[x * e for x, (_, e) in zip(row, rows)] for row in adj], d


def rat_inv(M):
    """Exact inverse of a square matrix over Q, all Fractions: rat_inverse's
    N / d, with its errors."""
    N, d = rat_inverse(M)
    return [[Fraction(x, d) for x in row] for row in N]


def rat_solve(A, B):
    """Solve A x = b over Q for every column b of B in one elimination: one
    entry per column, a list of Fractions, or None if it is inconsistent.

    The rows of [A | B] (A may be rectangular), each over its common
    denominator, go through one _gauss_jordan.  Pivots depend only on A's
    columns and free variables are zero, so each column gets the solution
    it would get alone: x = X / d (d the last pivot), with A' X = d b'
    verified on all rows.  Entries that are not ints or Fractions are a
    PreconditionError.
    """
    m, n = shape(A)
    k = shape(B)[1]
    if len(B) != m or any(len(row) != k for row in B):
        raise ValueError("dimension mismatch")
    _require_rational(A, "system")
    _require_rational(B, "system")
    scaled = [v for v, _ in _over_common_denominator([[*a, *b] for a, b in zip(A, B)])]
    rows = [list(v) for v in scaled]
    pivots, d, _ = _gauss_jordan(rows, n)
    pivot_rows = dict(zip(pivots, rows))
    out = []
    for j in range(n, n + k):
        X = [pivot_rows[c][j] if c in pivot_rows else 0 for c in range(n)]
        # no pivot but a nonzero right-hand side: inconsistent; then paranoia:
        # verify (cheap at these sizes, catches elimination slips)
        solved = not any(row[j] for row in rows[len(pivots):]) and all(
            sum(map(mul, v, X)) == d * v[j] for v in scaled)
        out.append([Fraction(x, d) for x in X] if solved else None)
    return out


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


# -- flattening formal matrices to integers -----------------------------------

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
    monomials = sorted({mono for row in P for p in row for mono in p})
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
