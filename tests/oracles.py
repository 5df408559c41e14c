"""Helpers that only the tests call, kept out of the library."""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import product as iter_product
from math import lcm
from operator import add

from avtk.errors import GeneratorMismatchError, PreconditionError
from avtk.homs import HomGenerator, IdempotentData
from avtk.intlinalg import (
    as_int,
    det,
    flatten_to_int,
    hnf,
    identity,
    int_kernel,
    mat_eq,
    matmul,
    rank,
    saturate_columns,
    shape,
    snf,
    transpose,
)
from avtk.parallel import _evaluate, coefficient_values
from avtk.scalars import FormalScalar, GeneratorSet, _grlex_key
from avtk.torus import (
    DualResult,
    PolarisedTorus,
    QuotientResult,
    SubvarietyEmbedding,
    TorsionPoint,
    constant_right_block,
    restricted_polarisation,
    subgroup_lattice,
)


def leading_term(p: FormalScalar):
    """(monomial, coefficient) of the graded-lex largest term of p."""
    if not p.terms:
        raise ValueError("zero scalar has no leading term")
    mono = max(p.terms, key=_grlex_key)
    return mono, p.terms[mono]


def embedding_to_doc(emb: SubvarietyEmbedding) -> dict:
    """The document embedding_from_doc reads back into emb."""
    return {"columns": [list(row) for row in emb.columns]}


def _descending_key(mono):
    """Heap entry whose smallest is the graded-lex largest monomial."""
    return (-sum(mono), tuple(-e for e in mono), mono)


def exact_div(f: FormalScalar, g: FormalScalar) -> FormalScalar:
    """Exact polynomial quotient f/g over Q; raises ValueError if g does not divide f."""
    if g.gens is not f.gens and g.gens != f.gens:
        raise GeneratorMismatchError(
            f"cannot divide a scalar over {f.gens.names} by one over {g.gens.names}"
        )
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    g_mono, g_coeff = leading_term(g)
    g_terms = list(g.terms.items())
    rem = dict(f.terms)
    # every monomial of rem has an entry; entries of cancelled ones are skipped
    heap = [_descending_key(m) for m in rem]
    heapify(heap)
    quotient = {}
    while rem:
        r_mono = heappop(heap)[2]
        if r_mono not in rem:
            continue
        diff = tuple(a - b for a, b in zip(r_mono, g_mono))
        if any(d < 0 for d in diff):
            raise ValueError(f"{g} does not divide {f}")
        q = rem[r_mono] / g_coeff
        quotient[diff] = q
        for mono, coeff in g_terms:  # rem -= q * x^diff * g, in place
            m = tuple(map(add, diff, mono))
            old = rem.get(m)
            if old is None:
                rem[m] = -q * coeff
                heappush(heap, _descending_key(m))
            else:
                new = old - q * coeff
                if new:
                    rem[m] = new
                else:
                    del rem[m]
    return FormalScalar._trusted(f.gens, quotient)


def pencil(mats):
    """sum(c_g * mats[g]) as a matrix of polynomials in generators c0, c1, ..."""
    r = len(mats)
    gens = GeneratorSet(f"c{g}" for g in range(r))
    units = [tuple(int(h == g) for h in range(r)) for g in range(r)]
    m, n = shape(mats[0])
    return [[FormalScalar(gens, {units[g]: mats[g][i][j] for g in range(r)})
             for j in range(n)] for i in range(m)]


def per_candidate_search(rank, bound, det_p, positive, zero, parities):
    """parallel.run_search's contract, one whole evaluation per candidate.

    (index, c) of the first coefficient vector in the enumeration order
    whose parity vector is in ``parities``, at which
    det_p is +-1, every ``positive`` polynomial is > 0 and every ``zero``
    one vanishes; None when no vector of the box passes.
    """
    for index, c in enumerate(iter_product(coefficient_values(bound), repeat=rank)):
        if tuple(v & 1 for v in c) not in parities:
            continue
        d = _evaluate(det_p, c)
        if d != 1 and d != -1:
            continue
        if any(_evaluate(p, c) <= 0 for p in positive):
            continue
        if any(_evaluate(p, c) for p in zero):
            continue
        return index, c
    return None


def integer_terms(p: FormalScalar):
    """A polynomial with integer coefficients as (coefficient, exponents) pairs."""
    out = []
    for mono in p.monomials():
        coeff = p.terms[mono]
        if coeff.denominator != 1:
            raise AssertionError(f"{p} has a non-integer coefficient")
        out.append((coeff.numerator, mono))
    return out


def formal_pullback_polynomials(mats, gram_y, gram_x):
    """pullback_polynomials through the FormalScalar pencil and formal matmul.

    The upper triangle of P^T E_Y P - E_X, row by row, each entry as
    integer_terms; the reference the integer-map builder must match.
    """
    P = pencil(mats)
    pulled = matmul(transpose(P), matmul(gram_y, P))
    return [integer_terms(pulled[i][j] - gram_x[i][j])
            for i in range(len(P)) for j in range(i + 1, len(P))]


def formal_det_polynomial(mats):
    """det_polynomial by Bareiss elimination on FormalScalar entries.

    The pencil is built with pencil above, so coefficients are Fractions,
    and each division is exact_div over Q.  This is the reference the
    integer-polynomial det_polynomial must match pair for pair, in the
    same order, on well-formed input.
    """
    A = pencil(mats)
    n = len(A)
    negate = False
    prev = None
    for k in range(n - 1):
        if A[k][k].is_zero():
            for r in range(k + 1, n):
                if not A[r][k].is_zero():
                    A[k], A[r] = A[r], A[k]
                    negate = not negate
                    break
            else:
                return []
        pivot = A[k][k]
        for i in range(k + 1, n):
            below = A[i][k]
            for j in range(k + 1, n):
                num = A[i][j] * pivot
                if not (below.is_zero() or A[k][j].is_zero()):
                    num = num - below * A[k][j]
                A[i][j] = num if prev is None or num.is_zero() else exact_div(num, prev)
        prev = pivot
    d = A[n - 1][n - 1]
    return integer_terms(-d if negate else d)


def dense_int_kernel(M):
    """The integer kernel by a dense column Hermite form of all of M.

    H = M @ U with U unimodular: the columns of U under the zero columns
    of H span the saturated kernel, which is then put in canonical column
    Hermite form.  This is the reference the sparse int_kernel must match
    entry for entry.
    """
    m, n = shape(M)
    H, U = dense_hnf(M)
    cols = [j for j in range(n) if all(H[i][j] == 0 for i in range(m))]
    if not cols:
        return []
    K, _ = dense_hnf([[U[i][j] for j in cols] for i in range(n)])
    return [[K[i][j] for i in range(n)] for j in range(len(cols))]


def dense_flatten_to_int(*matrices):
    """flatten_to_int through a dense coefficient list per entry.

    The reference for the sparse flatten: rows (matrix row, monomial), one
    common denominator over every input, an all-zero input as max(rows, 1)
    zero rows.
    """
    if not matrices:
        return []
    nrows = len(matrices[0])
    widths = [len(M[0]) if M and M[0] else 0 for M in matrices]
    combined = [[x for M in matrices for x in M[i]] for i in range(nrows)]
    gens = None
    union = set()
    for row in combined:
        for entry in row:
            if gens is None:
                gens = entry.gens
            elif entry.gens != gens:
                raise GeneratorMismatchError("matrix mixes generator sets")
            union.update(entry.terms)
    monomials = tuple(sorted(union, key=_grlex_key))
    table = [[[entry.terms.get(m, Fraction(0)) for m in monomials] for entry in row]
             for row in combined]
    denom = lcm(*{c.denominator for row in combined for x in row for c in x.terms.values()})
    outs = []
    offset = 0
    for w in widths:
        if monomials:
            flat = []
            for i in range(nrows):
                cells = table[i][offset : offset + w]
                for k in range(len(monomials)):
                    flat.append([int(cell[k] * denom) for cell in cells])
        else:
            flat = [[0] * w for _ in range(max(nrows, 1))]
        outs.append(flat)
        offset += w
    return outs


def right_block_inverse(T):
    """D_T^-1 over Fractions by gauss_jordan_inverse, the reference for the
    integer pair (DI, dI) that hom_module takes from intlinalg.rat_inverse."""
    return gauss_jordan_inverse(constant_right_block(T.periods))


def dual_hom(f: HomGenerator, dual_domain: DualResult | None = None,
             dual_codomain: DualResult | None = None) -> HomGenerator:
    """The induced homomorphism between the duals, in their recorded bases.

    For f: X -> Y this is a homomorphism dual(Y) -> dual(X).  On character
    lattices the rational representation is the transpose; composing with
    the basis bookkeeping of dual() (the quarter-turn block matrix J that
    relates a standard frame's dual basis to the dual torus's raw frame,
    and the recorded permutations) gives the matrix below, and the
    analytic representation is recomputed from the dual frames and
    verified.
    """
    X, Y = f.domain, f.codomain
    dX = dual_domain if dual_domain is not None else X.dual()
    dY = dual_codomain if dual_codomain is not None else Y.dual()
    n, m = X.dim, Y.dim

    def quarter_turn(k):
        J = [[0] * (2 * k) for _ in range(2 * k)]
        for i in range(k):
            J[k + i][i] = 1
            J[i][k + i] = -1
        return J

    def perm_matrix(perm, k):
        P = [[0] * (2 * k) for _ in range(2 * k)]
        for j, pj in enumerate(perm):
            P[pj][j] = 1
            P[k + pj][k + j] = 1
        return P

    JX = quarter_turn(n)
    JY = quarter_turn(m)
    PX = perm_matrix(dX.permutation, n)
    PY = perm_matrix(dY.permutation, m)
    Mt = transpose([list(r) for r in f.rational_rep])
    inner = matmul([[-x for x in row] for row in JX], matmul(Mt, JY))
    Mhat = matmul(transpose(PX), matmul(inner, PY))
    Dinv = right_block_inverse(dY.torus)
    nh = dY.torus.dim
    MR = [[Mhat[r][nh + j] for j in range(nh)] for r in range(2 * n)]
    F = matmul(matmul([list(r) for r in dX.torus.periods], MR), Dinv)
    return HomGenerator(dY.torus, dX.torus, Mhat, F)


# -- eliminations intlinalg no longer runs, kept as references -------------------

def fraction_det(M):
    """The determinant by Gaussian elimination over Fractions; always a Fraction.

    The reference for det on rational matrices.  Entries are converted
    with Fraction(x).
    """
    n = len(M)
    A = [[Fraction(x) for x in row] for row in M]
    sign = 1
    result = Fraction(1)
    for k in range(n):
        piv = None
        for r in range(k, n):
            if A[r][k] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        result *= A[k][k]
        inv = 1 / A[k][k]
        for i in range(k + 1, n):
            if A[i][k] == 0:
                continue
            f = A[i][k] * inv
            for j in range(k, n):
                A[i][j] -= f * A[k][j]
    return sign * result


def gauss_jordan_inverse(M):
    """The inverse over Q by Gauss-Jordan on M and I side by side.

    The reference for rat_inv: the same messages and all-Fraction results.
    """
    n, n2 = shape(M)
    if n != n2:
        raise ValueError("inverse of a non-square matrix")
    A = [[Fraction(x) for x in row] for row in M]
    B = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for k in range(n):
        piv = None
        for r in range(k, n):
            if A[r][k] != 0:
                piv = r
                break
        if piv is None:
            raise ValueError("matrix is singular")
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            B[k], B[piv] = B[piv], B[k]
        inv = 1 / A[k][k]
        A[k] = [x * inv for x in A[k]]
        B[k] = [x * inv for x in B[k]]
        for i in range(n):
            if i != k and A[i][k] != 0:
                f = A[i][k]
                A[i] = [a - f * p for a, p in zip(A[i], A[k])]
                B[i] = [b - f * p for b, p in zip(B[i], B[k])]
    return B


def gauss_jordan_solve(A, b):
    """One solution of A x = b over Q, free variables zero, or None.

    The reference for rat_solve: Gauss-Jordan on [A | b], then the full
    system is checked.
    """
    m, n = shape(A)
    if len(b) != m:
        raise ValueError("dimension mismatch")
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(A)]
    pivots = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if aug[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * p for a, p in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for row_idx, c in enumerate(pivots):
        x[c] = aug[row_idx][n]
    for i in range(m):
        total = Fraction(0)
        for j in range(n):
            if x[j]:
                total += Fraction(A[i][j]) * x[j]
        if total != Fraction(b[i]):
            return None
    return x


def fraction_gauss_jordan(rows, n):
    """Reduce rows of Fractions in place on their first n columns; the pivot columns.

    Each pivot, the first nonzero at or below the next pivot row, is
    scaled to 1 and cleared from every other row, each row operation
    applied to the whole row, so rows ends in reduced row echelon form
    over those columns.  The reference for the fraction-free _gauss_jordan,
    whose rows are d times these.
    """
    m = len(rows)
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        pivot_row = rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [a - f * p for a, p in zip(rows[i], pivot_row)]
        pivots.append(c)
    return pivots


def snf_saturate_columns(M):
    """The saturation of the column span through the Smith form.

    With S = U M V, the first r columns of U^-1 (r the rank) span the
    saturation; their canonical column Hermite form is the reference for
    saturate_columns.  The zero matrix gives an m x 0 matrix.
    """
    m, n = shape(M)
    S, U, _ = snf(M)
    r = sum(1 for i in range(min(m, n)) if S[i][i] != 0)
    if r == 0:
        return [[] for _ in range(m)]
    Uinv = gauss_jordan_inverse(U)
    basis = [[int(Uinv[i][j]) for j in range(r)] for i in range(m)]
    H, _ = dense_hnf(basis)
    return [[H[i][j] for j in range(r)] for i in range(m)]


def row_hnf(A):
    """(H, U) with H = U @ A in canonical row Hermite form.

    Pivots are positive, strictly right-moving, and entries above each
    pivot are reduced into [0, pivot).  Pivot selection favours minimal
    absolute value to keep intermediate entries small.  The dense
    reference for the sparse column reduction behind hnf, int_kernel and
    rank.
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


def dense_hnf(M):
    """hnf through row_hnf of the transpose: (H, U) with H = M @ U in
    canonical column Hermite form; an m x 0 matrix keeps its m rows."""
    m, n = shape(M)
    Ht, Ut = row_hnf(transpose(M))
    return (transpose(Ht) if n else [[] for _ in range(m)]), transpose(Ut)


def row_hnf_rank(M):
    """The rank as the count of nonzero rows of the row Hermite form."""
    H, _ = row_hnf(M)
    return sum(1 for row in H if any(row))


# -- lattice equality by Hermite forms, independent of period_identity_holds ----

class RankDeficiencyError(PreconditionError):
    """span_equal was given a side whose columns are not a lattice basis."""


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
    """The column Hermite form of Z; RankDeficiencyError naming ``side``
    unless every column is a pivot column."""
    H, _ = hnf(Z)
    n = shape(Z)[1]
    if sum(map(any, zip(*H))) != n:
        raise RankDeficiencyError(
            f"{side} matrix columns are linearly dependent (rank < {n})"
        )
    return H


# -- the symbolic Hom and family systems, kept as references --------------------

def symbolic_hom_system(X, Y):
    """The integer system of hom_module, built as one FormalScalar per cell.

    Row (i, j) is entry (i, j) of P_Y (M_R W - M_L), column (r, c) the
    unknown M[r][c]; flatten_to_int flattens it monomial by monomial.
    """
    n, m = X.dim, Y.dim
    DXinv = right_block_inverse(X)
    W = matmul(DXinv, X.left_block())
    PY = [list(r) for r in Y.periods]
    zero = X.gens.zero()
    system = [[PY[i][r] * W[c - n][j] if c >= n else -PY[i][r] if c == j else zero
               for r in range(2 * m) for c in range(2 * n)]
              for i in range(m) for j in range(n)]
    return flatten_to_int(system)[0]


def formal_identity_holds(F, PX, PY, M):
    """F @ P_X == P_Y @ M by two formal matmuls."""
    return mat_eq(matmul([list(r) for r in F], [list(r) for r in PX]),
                  matmul([list(r) for r in PY], [list(r) for r in M]))


def symbolic_hom_module(X, Y):
    """hom_module through symbolic_hom_system, as (M, F) pairs.

    F = (P_Y @ M_R) @ D_X^-1 by formal matmul, and each pair is checked
    with formal_identity_holds.
    """
    n, m = X.dim, Y.dim
    DXinv = right_block_inverse(X)
    PY = [list(r) for r in Y.periods]
    out = []
    for vec in int_kernel(symbolic_hom_system(X, Y)):
        M = [vec[r * 2 * n : (r + 1) * 2 * n] for r in range(2 * m)]
        F = matmul(matmul(PY, [row[n:] for row in M]), DXinv)
        assert formal_identity_holds(F, X.periods, PY, M)
        out.append((M, F))
    return out


def symbolic_family_system(A, Ahat):
    """The integer system of admissible_family, built as one FormalScalar per cell.

    Row (i, j) is entry (i, j) of H P_A - P_Ahat C; the columns are the
    entries of H on and above the diagonal, then C[r][c] column by column.
    """
    n = A.dim
    PA = [list(r) for r in A.periods]
    PH = [list(r) for r in Ahat.periods]
    sym = [(a, b) for a in range(n) for b in range(a, n)]
    zero = A.gens.zero()
    system = [[PA[b][j] if a == i else PA[a][j] if b == i else zero for a, b in sym]
              + [-PH[i][r] if c == j else zero for c in range(2 * n) for r in range(2 * n)]
              for i in range(n) for j in range(2 * n)]
    return flatten_to_int(system)[0]


def symbolic_admissible_family(A, Ahat):
    """admissible_family through symbolic_family_system, as (basis, coordinates).

    The basis is the Hermite basis of the kernel's projection onto the
    entries of H, and each element is checked with formal_identity_holds.
    """
    n = A.dim
    s = n * (n + 1) // 2
    sym = [(a, b) for a in range(n) for b in range(a, n)]
    vecs = int_kernel(symbolic_family_system(A, Ahat))
    if not vecs:
        return [], []
    unknowns = transpose(vecs)
    _, U = dense_hnf(unknowns[:s])
    full = matmul(unknowns, U)
    basis, coords = [], []
    for g in range(len(vecs)):
        H = [[0] * n for _ in range(n)]
        for u, (i, j) in enumerate(sym):
            H[i][j] = H[j][i] = full[u][g]
        C = [[full[s + j * 2 * n + row][g] for j in range(2 * n)] for row in range(2 * n)]
        assert formal_identity_holds(H, A.periods, Ahat.periods, C)
        basis.append(H)
        coords.append(C)
    return basis, coords


# -- the Fraction torsion and subtorus pipelines, kept as references -------------

def _fraction_kernel_basis(T):
    """(W, s): W = V diag(1/s) as Fractions, from the Smith form of the gram."""
    S, _, V = snf([list(r) for r in T.gram])
    m = 2 * T.dim
    orders = [S[i][i] for i in range(m)]
    return [[Fraction(V[i][j], orders[j]) for j in range(m)] for i in range(m)], orders


def fraction_quotient(T, point):
    """PolarisedTorus.quotient with the basis, periods and form over Fractions."""
    m = 2 * T.dim
    if len(point.coords) != m:
        raise PreconditionError("point dimension does not match the torus")
    for j, val in enumerate(matmul([point.lift()], T.gram)[0]):
        if val.denominator != 1:
            raise PreconditionError(
                f"point is not in the polarising kernel: pairing with basis "
                f"vector {j} gives {val}"
            )
    B = subgroup_lattice([point], m)
    if abs(det(B)) != Fraction(1, point.order):
        raise AssertionError("quotient basis has wrong index")
    new_periods = matmul([list(r) for r in T.periods], B)
    new_gram = []
    for row in matmul(transpose(B), matmul([list(r) for r in T.gram], B)):
        if any(Fraction(x).denominator != 1 for x in row):
            raise AssertionError("induced form is not integral on the new lattice")
        new_gram.append([int(x) for x in row])
    torus = PolarisedTorus(T.gens, new_periods, new_gram, T.assumptions)
    return QuotientResult(torus=torus, basis=B, source=T)


def fraction_push_point(qres, point):
    """QuotientResult.push_point through the Fraction inverse of the basis."""
    Binv = gauss_jordan_inverse([list(r) for r in qres.basis])
    lift = point.lift()
    return TorsionPoint([sum(b * x for b, x in zip(row, lift)) for row in Binv])


def fraction_symplectic_complement(T, points):
    """PolarisedTorus.symplectic_complement with W, the pairings and both
    inverses over Fractions."""
    m = 2 * T.dim
    W, orders = _fraction_kernel_basis(T)
    gram = [list(r) for r in T.gram]
    gram_w = matmul(gram, W)
    pair_rows = []
    for g in points:
        lift = [g.lift()]
        if any(val.denominator != 1 for val in matmul(lift, gram)[0]):
            raise PreconditionError("complement of a point outside the polarising kernel")
        pair_rows.append(matmul(lift, gram_w)[0])
    if pair_rows:
        scale = lcm(*(v.denominator for row in pair_rows for v in row))
        ints = [[int(v * scale) for v in row] for row in pair_rows]
        wide = [row + [-scale if r == i else 0 for r in range(len(ints))]
                for i, row in enumerate(ints)]
        kern = int_kernel(wide)
        gens_cols = [[col[i] for col in kern] for i in range(m)]
    else:
        gens_cols = identity(m)
    full = [gens_cols[i] + [orders[i] if j == i else 0 for j in range(m)] for i in range(m)]
    BS, _ = dense_hnf(full)
    BS = [row[:m] for row in BS]
    if rank(BS) != m:
        raise AssertionError("solution lattice must have full rank")
    C = matmul(gauss_jordan_inverse(BS),
               [[orders[i] if i == j else 0 for j in range(m)] for i in range(m)])
    if any(Fraction(x).denominator != 1 for row in C for x in row):
        raise AssertionError("relation matrix must be integral")
    St, Uc, _ = snf([[int(x) for x in row] for row in C])
    point_mat = matmul(W, matmul(BS, gauss_jordan_inverse(Uc)))
    out = []
    for j in range(m):
        order = St[j][j]
        if order == 1:
            continue
        p = TorsionPoint([point_mat[i][j] for i in range(m)])
        if p.order != order:
            raise AssertionError("complement generator has unexpected order")
        out.append(p)
    return out


def fraction_idempotent(emb):
    """idempotent with the projector J (J^T E J)^-1 J^T E over Fractions."""
    T = emb.torus
    J = [list(r) for r in emb.columns]
    gram_b, rtype = restricted_polarisation(T, emb)
    eps = matmul(J, matmul(gauss_jordan_inverse(gram_b),
                           matmul(transpose(J), [list(r) for r in T.gram])))
    if not mat_eq(matmul(eps, eps), eps):
        raise AssertionError("projector is not idempotent")
    exponent = rtype[-1]
    norm = [[Fraction(exponent) * x for x in row] for row in eps]
    if any(x.denominator != 1 for row in norm for x in row):
        raise PreconditionError(
            "norm endomorphism is not integral; the sublattice does not "
            "carry the restricted polarisation as a subtorus"
        )
    return IdempotentData(emb, eps, exponent, norm)


def fraction_complementary_subvariety(emb):
    """IdempotentData.complement from 1 - epsilon over Fractions, cleared by
    the lcm of its denominators."""
    T = emb.torus
    m2 = 2 * T.dim
    eps = fraction_idempotent(emb).epsilon
    comp = [[int(i == j) - eps[i][j] for j in range(m2)] for i in range(m2)]
    denom = lcm(*(Fraction(x).denominator for row in comp for x in row))
    out = SubvarietyEmbedding(T, saturate_columns([[int(x * denom) for x in row] for row in comp]))
    joint = [list(emb.columns[i]) + list(out.columns[i]) for i in range(m2)]
    if out.rank + emb.rank != m2 or det(joint) == 0:
        raise AssertionError("complement does not span the torus with the input")
    return out
