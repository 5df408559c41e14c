"""Exact checks that share no code with avtk.

The benchmark judges every avtk answer against facts computed here:
small determinants and linear solves over Q, period matrices held as
plain polynomials, residues modulo d and reduced binary quadratic forms.
Polynomials are dicts mapping an exponent tuple over the generators
(a, b, c) to a Fraction; a period matrix is a list of rows of them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

NGENS = 3  # the generic surface uses the generators a, b, c


def const(x) -> dict:
    x = Fraction(x)
    return {(0,) * NGENS: x} if x else {}


def gen(i: int, coeff=1) -> dict:
    mono = tuple(1 if j == i else 0 for j in range(NGENS))
    return {mono: Fraction(coeff)}


def padd(p: dict, q: dict) -> dict:
    out = dict(p)
    for m, c in q.items():
        v = out.get(m, 0) + c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def pscale(p: dict, x) -> dict:
    return {m: c * x for m, c in p.items()} if x else {}


def pmul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


# -- periods of the generic (1, d) surface, its dual and their products --------

def surface_periods(d: int):
    """[[a, b, 1, 0], [b, c, 0, d]]: the generic surface of type (1, d)."""
    a, b, c = gen(0), gen(1), gen(2)
    return [[a, b, const(1), {}], [b, c, {}, const(d)]]


def dual_surface_periods(d: int):
    """[[d*a, b, d, 0], [b, c/d, 0, 1]]: the dual of the (1, d) surface,
    rows rescaled by d and 1 so that the frame is integral, type (d, 1)."""
    return [[gen(0, d), gen(1), const(d), {}], [gen(1), gen(2, Fraction(1, d)), {}, const(1)]]


def product_periods(factors):
    """Grouped frame: every left block first, then every right block."""
    dims = [len(P) for P in factors]
    n = sum(dims)
    out = [[{} for _ in range(2 * n)] for _ in range(n)]
    off = 0
    for P, k in zip(factors, dims):
        for i in range(k):
            for j in range(k):
                out[off + i][off + j] = P[i][j]
                out[off + i][n + off + j] = P[i][k + j]
        off += k
    return out


# -- linear algebra over Q ----------------------------------------------------

def det(M) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    A = [[Fraction(x) for x in row] for row in M]
    n = len(A)
    out = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if A[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            A[c], A[p] = A[p], A[c]
            out = -out
        out *= A[c][c]
        for r in range(c + 1, n):
            f = A[r][c] / A[c][c]
            if f:
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return out


def _echelon(A):
    """Row echelon form in place; returns the pivot columns."""
    pivots = []
    row = 0
    for c in range(len(A[0]) if A else 0):
        p = next((r for r in range(row, len(A)) if A[r][c]), None)
        if p is None:
            continue
        A[row], A[p] = A[p], A[row]
        for r in range(len(A)):
            if r != row and A[r][c]:
                f = A[r][c] / A[row][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[row])]
        pivots.append(c)
        row += 1
    return pivots


def solve(Q, t):
    """The unique x with Q x = t over Q, or None (no or many solutions)."""
    cols = len(Q[0])
    A = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(Q, t)]
    pivots = _echelon(A)
    if cols in pivots or len(pivots) != cols:
        return None
    return [A[i][-1] / A[i][i] for i in range(cols)]


def inverse(M):
    n = len(M)
    A = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(M)]
    if len(_echelon(A)) < n or any(not A[i][i] for i in range(n)):
        raise ValueError("singular matrix")
    return [[A[i][n + j] / A[i][i] for j in range(n)] for i in range(n)]


def matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
            for i in range(len(A))]


def poly_matmul(P, M):
    """Polynomial matrix times rational matrix."""
    out = []
    for row in P:
        new = []
        for j in range(len(M[0])):
            acc: dict = {}
            for k, p in enumerate(row):
                if M[k][j] and p:
                    acc = padd(acc, pscale(p, M[k][j]))
            new.append(acc)
        out.append(new)
    return out


def poly_poly_matmul(F, P):
    out = []
    for row in F:
        new = []
        for j in range(len(P[0])):
            acc: dict = {}
            for k, f in enumerate(row):
                if f and P[k][j]:
                    acc = padd(acc, pmul(f, P[k][j]))
            new.append(acc)
        out.append(new)
    return out


def lattice_coordinates(P, column):
    """Rational x with P x = column, matching every monomial, or None."""
    monos = sorted({m for row in P for p in row for m in p} | {m for p in column for m in p})
    Q = [[p.get(m, 0) for p in row] for m in monos for row in P]
    t = [p.get(m, 0) for m in monos for p in column]
    return solve(Q, t)


# -- the facts the benchmark checks -------------------------------------------

def minus_one_is_square(d: int) -> bool:
    return any((x * x + 1) % d == 0 for x in range(d))


def square_residues(d: int):
    return sorted({x * x % d for x in range(d)})


def leading_minors(H):
    return [det([row[:k] for row in H[:k]]) for k in range(1, len(H) + 1)]


def principal_polarisation_error(H, PA, PB):
    """Why H is not a principal polarisation from periods PA onto PB, or None.

    H must be symmetric with positive leading minors, and H PA = PB C
    for an integer matrix C with det C = +-1.
    """
    n = len(H)
    if any(H[i][j] != H[j][i] for i in range(n) for j in range(i)):
        return "witness is not symmetric"
    if any(m <= 0 for m in leading_minors(H)):
        return "witness is not positive definite"
    image = [[padd_all(pscale(PA[k][j], H[i][k]) for k in range(n)) for j in range(2 * n)]
             for i in range(n)]
    C = []
    for j in range(2 * n):
        x = lattice_coordinates(PB, [image[i][j] for i in range(n)])
        if x is None or any(v.denominator != 1 for v in x):
            return f"image column {j} is not in the target lattice"
        C.append(x)
    d = det([list(r) for r in zip(*C)])
    if d not in (1, -1):
        return f"image lattice has index {abs(d)}, not 1"
    return None


def padd_all(polys) -> dict:
    acc: dict = {}
    for p in polys:
        acc = padd(acc, p)
    return acc


def isomorphism_error(M, PX, PY):
    """Why the integer matrix M is not an isomorphism X -> Y, or None.

    M must be unimodular and satisfy F PX = PY M, with F read off the
    right period block of X (constant and invertible in these frames).
    """
    d = det(M)
    if d not in (1, -1):
        return f"witness has determinant {d}"
    n = len(PX)
    DX = []
    for row in PX:
        right = []
        for p in row[n:]:
            if any(any(m) for m in p):
                return "right period block of the source is not constant"
            right.append(p.get((0,) * NGENS, Fraction(0)))
        DX.append(right)
    PYM = poly_matmul(PY, M)
    R = [row[n:] for row in PYM]
    Dinv = inverse(DX)
    F = [[padd_all(pscale(R[i][k], Dinv[k][j]) for k in range(n)) for j in range(n)]
         for i in range(len(R))]
    if poly_poly_matmul(F, PX) != PYM:
        return "witness does not satisfy F * periods_X = periods_Y * M"
    return None


def _reduce_form(A, B, C):
    """Gauss-reduced representative of a positive definite binary form."""
    while True:
        if A > C or (A == C and B < 0):
            A, B, C = C, -B, A
        elif B > A or B <= -A:
            k = (A - B) // (2 * A)  # B + 2kA lands in (-A, A]
            B, C = B + 2 * k * A, A * k * k + B * k + C
        else:
            return A, B, C


def _tau_form(p, q, r, D, n):
    """Primitive form of tau/n for tau = (p + q sqrt(D)) / r."""
    A, B, C = r * r * n * n, -2 * p * r * n, p * p - q * q * D
    g = gcd(gcd(A, B), C)
    return A // g, B // g, C // g


def quotient_isomorphic(p, q, r, D, n) -> bool:
    """Is C/(Z + tau Z) isomorphic to C/(Z + (tau/n) Z)?  Decided by
    comparing the reduced quadratic forms of tau and tau/n."""
    return _reduce_form(*_tau_form(p, q, r, D, 1)) == _reduce_form(*_tau_form(p, q, r, D, n))


def point_order(coords) -> int:
    order = 1
    for x in coords:
        order = order * Fraction(x).denominator // gcd(order, Fraction(x).denominator)
    return order


def subgroup_order(points) -> int:
    """Order of the subgroup of (Q/Z)^m generated by the points."""
    elems = {tuple(Fraction(0) for _ in points[0])}
    for g in points:
        elems = {tuple((u + i * Fraction(v)) % 1 for u, v in zip(e, g))
                 for e in elems for i in range(point_order(g))}
    return len(elems)
