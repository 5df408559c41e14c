"""Polarised complex tori presented by big period matrices.

A torus of dimension n is stored as an n x 2n period matrix with formal
polynomial entries together with an alternating nondegenerate integer form
(the gram matrix of the polarisation) on the lattice basis.  The frame
[Z | D] with Z symmetric and D a positive integer diagonal is called a
standard frame; in that frame the gram matrix is [[0, D], [-D, 0]].
standard_torus builds such a frame, and constant_right_block and
standard_diagonal are the only readers of a right period block.

Analytic assumptions (for instance that the imaginary part of Z is
positive definite) cannot be expressed over Q; they live in the
``assumptions`` string and are never used by any computation here.

Points of finite order are written in lattice coordinates: a vector of
rationals modulo 1 whose canonical lift lies in [0, 1)^(2n).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product
from math import lcm
from operator import mul

from .errors import Immutable, PreconditionError, Value
from .intlinalg import (
    _add_row_times,
    _divide_exactly,
    _render_slice,
    _slice_product,
    as_int,
    det,
    elementary_divisors,
    flatten_to_int,
    hnf,
    identity,
    int_inverse,
    int_kernel,
    lattice_det,
    mat_eq,
    matmul,
    rank,
    rat_inverse,
    rat_solve,
    saturate_columns,
    shape,
    snf,
    transpose,
)
from .scalars import FormalScalar, GeneratorSet, monomial_flatten


class TorsionPoint(Value):
    """A torsion point in lattice coordinates, reduced modulo 1.

    The order is the least k with k * coords integral, i.e. the lcm of the
    coordinate denominators.  A coordinate that is not an int or a Fraction,
    a bool among them, is a PreconditionError.
    """

    __slots__ = ("coords", "order")

    def __init__(self, coords):
        coords = tuple(coords)
        for c in coords:
            if type(c) not in (int, Fraction):  # bool is an int subclass
                raise PreconditionError(f"torsion point coordinate {c!r} is not an int or a Fraction")
        reduced = tuple((c if type(c) is Fraction else Fraction(c)) % 1 for c in coords)
        object.__setattr__(self, "coords", reduced)
        object.__setattr__(self, "order", lcm(*(c.denominator for c in reduced)) if reduced else 1)

    def lift(self):
        """The canonical lift in [0,1)^(2n) as a list of Fractions."""
        return list(self.coords)

    def integer_lift(self):
        """order * lift(), as ints."""
        return [c.numerator * (self.order // c.denominator) for c in self.coords]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "TorsionPoint") -> "TorsionPoint":
        if len(self.coords) != len(other.coords):
            raise ValueError("points live on tori of different dimension")
        return TorsionPoint([a + b for a, b in zip(self.coords, other.coords)])

    def __mul__(self, k: int) -> "TorsionPoint":
        return TorsionPoint([k * c for c in self.coords])

    __rmul__ = __mul__

    def __neg__(self) -> "TorsionPoint":
        return TorsionPoint([-c for c in self.coords])

    def _key(self):
        return self.coords

    def __repr__(self) -> str:
        return f"TorsionPoint(({', '.join(str(c) for c in self.coords)}))"


class PolarisedTorus(Value):
    """Period matrix plus polarisation form, all exact.

    ``periods`` is n x 2n over FormalScalar, ``gram`` is 2n x 2n integer
    (ints or integral Fractions; any other entry is a PreconditionError),
    alternating and nondegenerate.  Instances are immutable value objects;
    equality compares generators, periods and gram entrywise.

    Four facts of the periods alone are built on first use and kept, once
    per torus: the slice period_slice, the flag periods_independent, the
    integer lattice_det, and right_frame, the inverse of the right period
    block with the columns of W = D^-1 @ Z.  So is one fact of the gram,
    its Smith data (_kernel_basis), which polarisation_type and the
    polarising kernel read.  They are outside the key, so equality and
    hash do not see whether they were built; a refusal is never kept and
    is raised again on every call.
    """

    __slots__ = ("gens", "periods", "gram", "assumptions",
                 "_slice", "_independent", "_lattice", "_frame", "_smith")

    def __init__(self, gens: GeneratorSet, periods, gram, assumptions: str = ""):
        n = len(periods)
        if n == 0 or any(len(row) != 2 * n for row in periods):
            raise PreconditionError("period matrix must be n x 2n with n >= 1")
        rows = []
        for row in periods:
            entries = []
            for x in row:
                if isinstance(x, FormalScalar):
                    if x.gens is not gens and x.gens != gens:  # identity is the usual case
                        raise PreconditionError("period entry over a different generator set")
                    entries.append(x)
                else:
                    entries.append(gens.constant(x))
            rows.append(tuple(entries))
        m = len(gram)
        if m != 2 * n or any(len(r) != 2 * n for r in gram):
            raise PreconditionError("gram matrix must be 2n x 2n")
        g = tuple(tuple(as_int(x) for x in row) for row in gram)
        for i in range(m):
            for j in range(m):
                if g[i][j] != -g[j][i]:
                    raise PreconditionError("gram matrix is not alternating")
        if det([list(r) for r in g]) == 0:
            raise PreconditionError("gram matrix is degenerate")
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "periods", tuple(rows))
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "assumptions", assumptions)
        for slot in ("_slice", "_independent", "_lattice", "_frame", "_smith"):
            object.__setattr__(self, slot, None)

    @property
    def dim(self) -> int:
        return len(self.periods)

    # -- facts of the periods, built on first use and kept -------------------

    @property
    def period_slice(self):
        """The periods over one common denominator, (d, P) as
        scalars.monomial_flatten gives it, rows as tuples.  Every caller
        reads the same slice and must not change it."""
        if self._slice is None:
            d, P = monomial_flatten(self.periods)
            object.__setattr__(self, "_slice", (d, tuple(map(tuple, P))))
        return self._slice

    @property
    def periods_independent(self) -> bool:
        """Whether the 2n periods are linearly independent over Q: the
        coefficient rows of the slice, one per (row, monomial), have rank 2n."""
        if self._independent is None:
            P = self.period_slice[1]
            object.__setattr__(self, "_independent", rank(
                [[p.get(mono, 0) for p in row] for row in P for mono in set().union(*row)]
            ) == 2 * self.dim)
        return self._independent

    @property
    def lattice_det(self) -> int:
        """intlinalg.lattice_det of the slice: nonzero where the periods span
        a lattice, and with the value of another torus the kappa of
        det M = kappa * det(F)**2 for the maps between them (parallel.kappa)."""
        if self._lattice is None:
            object.__setattr__(self, "_lattice",
                               lattice_det(self.period_slice[1], len(self.gens)))
        return self._lattice

    def right_frame(self):
        """(DI, dI, W) for periods [Z | D]: D^-1 = DI / dI with DI an integer
        matrix (rat_inverse), and W = D^-1 @ Z = DI @ (d Z) / (dI d), d the
        slice's denominator, as the nonzero entries (t, polynomial) of
        DI @ (d Z) in each column.  A right block that is not constant, or
        is singular over Q, is a PreconditionError on every call."""
        if self._frame is None:
            R = constant_right_block(self.periods)
            if R is None:
                raise PreconditionError("right period block is not constant; bring the torus "
                                        "to a frame with a constant right block first")
            try:
                DI, dI = rat_inverse(R)
            except ValueError:
                raise PreconditionError("right period block is singular over Q") from None
            n, P = self.dim, self.period_slice[1]
            DIt, W = transpose(DI), []
            for j in range(n):
                acc = [{} for _ in range(n)]
                _add_row_times(acc, [row[j] for row in P], DIt, 1)
                W.append(tuple((t, w) for t, a in enumerate(acc)
                               if (w := {mono: c for mono, c in a.items() if c})))
            object.__setattr__(self, "_frame", (tuple(map(tuple, DI)), dI, tuple(W)))
        return self._frame

    def _key(self):
        return (self.gens, self.periods, self.gram)

    def __repr__(self) -> str:
        rows = "; ".join(
            ", ".join(str(x) for x in row) for row in self.periods
        )
        return f"PolarisedTorus(dim={self.dim}, periods=[{rows}])"

    # -- frames ---------------------------------------------------------

    def left_block(self):
        n = self.dim
        return [[row[j] for j in range(n)] for row in self.periods]

    def standard_frame_diagonal(self):
        """The diagonal D if this is a standard frame [Z | D], else None.

        Standard means: right block diag(D) for positive integers D
        (standard_diagonal), left block symmetric, gram equal to
        [[0, D], [-D, 0]].
        """
        D = standard_diagonal(self.periods)
        Z = self.left_block()
        if D is None or any(Z[i][j] != Z[j][i] for i in range(self.dim) for j in range(i)):
            return None
        return D if mat_eq([list(r) for r in self.gram], standard_gram(D)) else None

    # -- the polarisation -------------------------------------------------

    def polarisation_type(self):
        """The type (d_1, ..., d_n): the kept Smith diagonal of the gram,
        whose pairing up is checked on every call (_paired_divisors)."""
        return _paired_divisors(self._kernel_basis()[1])

    def polarising_kernel(self):
        """Generators of the kernel of the isogeny induced by the form.

        Returns a list of TorsionPoints whose orders are the polarisation
        type repeated twice (order-1 generators are dropped); the cyclic
        groups they generate give the whole kernel as a direct sum.
        """
        V, orders = self._kernel_basis()
        points = [TorsionPoint([Fraction(row[j], o) for row in V])
                  for j, o in enumerate(orders) if o > 1]
        for p, order in zip(points, [o for o in orders if o > 1]):
            if p.order != order:
                raise AssertionError("kernel generator has unexpected order")
        return points

    def _kernel_basis(self):
        """(V, s): V diag(1/s) is a basis of the dual lattice, s a divisibility
        chain, the gram's elementary divisors; from one snf of the gram on
        first use, kept as tuples.  Every caller reads the same V and s and
        must not change them."""
        if self._smith is None:
            S, U, V = snf([list(r) for r in self.gram])
            object.__setattr__(self, "_smith", (tuple(map(tuple, V)),
                                                tuple(S[i][i] for i in range(2 * self.dim))))
        return self._smith

    def kernel_elements(self):
        """Every element of the polarising kernel, as a set of points.

        The kernel has prod(d_i)^2 elements for type (d_1, ..., d_n), so
        this is a test oracle for small groups; compare kernels with
        ``subgroup_lattice(self.polarising_kernel(), 2 * self.dim)``.
        """
        V, orders = self._kernel_basis()
        return {TorsionPoint([sum(Fraction(c * v, o) for c, v, o in zip(combo, row, orders))
                              for row in V])
                for combo in iter_product(*(range(o) for o in orders))}

    # -- operations returning new tori ------------------------------------

    def quotient(self, point: TorsionPoint) -> "QuotientResult":
        """Quotient by the cyclic subgroup generated by a kernel point.

        The point must pair integrally with the lattice (i.e. lie in the
        polarising kernel); cyclic groups are automatically isotropic.  The
        new lattice basis is the canonical column Hermite basis of the
        extended lattice, the form is carried along by base change.  With
        the point x / k and that basis H / k, x E must vanish modulo k and
        H^T E H modulo k^2, and |det H| must be k^(m-1).
        """
        m = 2 * self.dim
        if len(point.coords) != m:
            raise PreconditionError("point dimension does not match the torus")
        k = point.order
        x = point.integer_lift()
        for j, y in enumerate(matmul([x], self.gram)[0]):
            if y % k:
                raise PreconditionError(
                    f"point is not in the polarising kernel: pairing with basis "
                    f"vector {j} gives {Fraction(y, k)}"
                )
        H, _ = hnf([[k * (i == j) for j in range(m)] + [x[i]] for i in range(m)])
        H = [row[:m] for row in H]
        if abs(det(H)) != k ** (m - 1):
            raise AssertionError("quotient basis has wrong index")
        dP, P = self.period_slice
        new_gram = _divide_exactly(matmul(transpose(H), matmul(self.gram, H)), k * k)
        if new_gram is None:
            raise AssertionError("induced form is not integral on the new lattice")
        torus = PolarisedTorus(self.gens, _render_slice(self.gens, dP * k, _slice_product(P, H)),
                               new_gram, self.assumptions)
        basis = [[Fraction(h, k) for h in row] for row in H]
        return QuotientResult(torus=torus, basis=basis, source=self)

    def symplectic_complement(self, points):
        """Generators of the orthogonal complement, inside the kernel, of
        the subgroup generated by ``points`` under the induced pairing.

        Orthogonality of x and g means the form takes an integer value on
        their lifts.  Returns generators of a direct-sum decomposition
        (order-1 generators dropped).

        On integers: the kernel basis is V' / t, t the last order, and a
        point x / k pairs with V' c / t to x E V' c / (k t).  The basis BS of
        the c pairing integrally with every point is the first m rows of
        int_kernel's Hermite basis: the kernel pairs integrally with the
        lattice, so these c include diag(s) Z^m and BS is m x m.  The relation
        matrix adj(BS) diag(s) / det(BS) must be integral, and only the
        generators V' BS Uc^-1 / t are built as Fractions.
        """
        m = 2 * self.dim
        V, orders = self._kernel_basis()
        top = orders[-1]
        Vs = [[v * (top // s) for v, s in zip(row, orders)] for row in V]
        wide = []
        for i, g in enumerate(points):
            if len(g.coords) != m:
                raise PreconditionError("point dimension does not match the torus")
            xE = matmul([g.integer_lift()], self.gram)[0]
            if any(y % g.order for y in xE):
                raise PreconditionError(
                    "complement of a point outside the polarising kernel"
                )
            wide.append(matmul([xE], Vs)[0]
                        + [-g.order * top if r == i else 0 for r in range(len(points))])
        if wide:
            kern = int_kernel(wide)
            BS = [[col[i] for col in kern] for i in range(m)]
        else:  # no conditions: every coefficient vector is a solution
            BS = identity(m)
        try:
            adj, d = int_inverse(BS)
        except ValueError:
            raise AssertionError("solution lattice must have full rank") from None
        C = _divide_exactly([[a * s for a, s in zip(row, orders)] for row in adj], d)
        if C is None:
            raise AssertionError("relation matrix must be integral")
        St, Uc, _ = snf(C)
        adj_u, det_u = int_inverse(Uc)
        P = matmul(Vs, matmul(BS, adj_u))
        out = []
        for j in range(m):
            order = St[j][j]
            if order == 1:
                continue
            p = TorsionPoint([Fraction(det_u * row[j], top) for row in P])
            if p.order != order:
                raise AssertionError("complement generator has unexpected order")
            out.append(p)
        return out

    def dual(self) -> "DualResult":
        """The dual torus computed in a standard frame [Z | D].

        Row i of [Z D^{-1} | I] is rescaled by lambda_i = (min D)(max D)/d_i,
        which is the unique scaling producing an integral standard frame
        carrying the dual polarisation; rows and columns are then stably
        reordered so the new diagonal ascends.  Scalings and the
        permutation are recorded, and the pre-permutation frame is returned
        as the torus ``display``.  On divisibility-ordered input, dual of
        dual returns the original torus exactly.
        """
        D = self.standard_frame_diagonal()
        if D is None:
            raise PreconditionError(
                "dual requires a standard frame [Z | D] with symmetric Z, "
                "positive integer diagonal D and the matching standard form"
            )
        n = self.dim
        Z = self.left_block()
        c = min(D) * max(D)
        if any(c % d for d in D):
            raise PreconditionError(f"diagonal {tuple(D)} is not a divisibility chain when sorted")
        lams = [c // d for d in D]
        scaled = [[Z[i][j] * Fraction(lams[i], D[j]) for j in range(n)] for i in range(n)]
        display = standard_torus(self.gens, scaled, lams, self.assumptions)
        perm = sorted(range(n), key=lambda i: (lams[i], i))  # stable ascending
        torus = standard_torus(self.gens, [[display.periods[i][j] for j in perm] for i in perm],
                               [lams[i] for i in perm], self.assumptions)
        return DualResult(
            torus=torus,
            scalings=tuple(lams),
            permutation=tuple(perm),
            display=display,
        )


class QuotientResult(Immutable):
    """A quotient torus plus the base change that produced it.

    ``basis`` expresses the new lattice basis in the source lattice
    coordinates (columns, rational entries); push_point moves torsion
    points of the source into the quotient's coordinates.  The inverse of
    ``basis`` is computed on the first push_point and kept for the rest.
    """

    __slots__ = ("torus", "basis", "source", "_inverse")

    def __init__(self, torus, basis, source):
        object.__setattr__(self, "torus", torus)
        object.__setattr__(self, "basis", tuple(tuple(r) for r in basis))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "_inverse", None)

    def push_point(self, point: TorsionPoint) -> TorsionPoint:
        """The image B^-1 x of a source point x / k: with B^-1 = N / d from
        rat_inverse, it is N x / (d k)."""
        if len(point.coords) != len(self.basis):
            raise PreconditionError("point dimension does not match the torus")
        if self._inverse is None:
            object.__setattr__(self, "_inverse", rat_inverse(self.basis))
        N, d = self._inverse
        x = point.integer_lift()
        dk = d * point.order
        return TorsionPoint([Fraction(sum(map(mul, row, x)), dk) for row in N])


class DualResult(Immutable):
    """A dual torus plus the recorded row scalings and reordering.  ``display``
    is the dual before the reordering: [Z D^-1 | I] with row i scaled by
    scalings[i], in a standard frame with the form of its diagonal."""

    __slots__ = ("torus", "scalings", "permutation", "display")

    def __init__(self, torus, scalings, permutation, display):
        object.__setattr__(self, "torus", torus)
        object.__setattr__(self, "scalings", scalings)
        object.__setattr__(self, "permutation", permutation)
        object.__setattr__(self, "display", display)


class SubvarietyEmbedding(Value):
    """A saturated sublattice of even rank inside a torus lattice.

    Columns of ``columns`` (2n x 2m, integers) are a basis of the
    sublattice; saturation is validated, compatibility with the complex
    structure is the caller's declared assumption and cannot be checked
    formally.
    """

    __slots__ = ("torus", "columns")

    def __init__(self, torus: PolarisedTorus, columns):
        m2 = len(columns[0]) if columns and columns[0] else 0
        if len(columns) != 2 * torus.dim:
            raise PreconditionError("sublattice rows must match the torus lattice rank")
        if m2 % 2:
            raise PreconditionError("sublattice rank must be even")
        if any(type(x) is not int for row in columns for x in row):
            raise PreconditionError("sublattice columns must have integer entries")
        cols = [list(row) for row in columns]
        if m2:
            divisors = elementary_divisors(cols)
            if len(divisors) != m2:
                raise PreconditionError("sublattice columns are dependent")
            if any(d != 1 for d in divisors):
                raise PreconditionError("sublattice is not saturated")
        object.__setattr__(self, "torus", torus)
        object.__setattr__(self, "columns", tuple(tuple(r) for r in cols))

    @classmethod
    def from_spanning_vectors(cls, torus: PolarisedTorus, vectors):
        """Embedding of the saturation of the span of integer vectors."""
        m = 2 * torus.dim
        mat = [[v[i] for v in vectors] for i in range(m)]
        return cls(torus, saturate_columns(mat))

    @property
    def rank(self) -> int:
        return len(self.columns[0]) if self.columns and self.columns[0] else 0

    def _key(self):
        return (self.torus, self.columns)


def standard_gram(D):
    """The form [[0, diag(D)], [-diag(D), 0]]."""
    n = len(D)
    E = [[0] * (2 * n) for _ in range(2 * n)]
    for i, d in enumerate(D):
        E[i][n + i] = int(d)
        E[n + i][i] = -int(d)
    return E


def standard_torus(gens: GeneratorSet, Z, D, assumptions: str = "") -> PolarisedTorus:
    """The torus [Z | diag(D)] with the form standard_gram(D); the
    optional ``assumptions`` string is the constructor's."""
    n = len(D)
    periods = [list(Z[i]) + [D[i] if j == i else 0 for j in range(n)] for i in range(n)]
    return PolarisedTorus(gens, periods, standard_gram(D), assumptions)


def constant_right_block(periods):
    """The right n x n block of an n x 2n period matrix as Fractions, or
    None when an entry is not constant."""
    n = len(periods)
    block = [row[n:] for row in periods]
    if not all(x.is_constant() for row in block for x in row):
        return None
    return [[x.constant_value() for x in row] for row in block]


def standard_diagonal(periods):
    """D when the right period block is diag(D) with D positive integers,
    else None."""
    R = constant_right_block(periods)
    if R is None or any((x.denominator != 1 or x <= 0) if i == j else x
                        for i, row in enumerate(R) for j, x in enumerate(row)):
        return None
    return [int(row[i]) for i, row in enumerate(R)]


def pairing_type(E):
    """Polarisation type of an alternating integral form.

    The elementary divisors of such a form pair up; the type lists each
    pair once, in divisibility order.  A divisor of odd multiplicity means
    the input was not alternating-equivalent to a type form and is
    reported as an error.
    """
    divs = elementary_divisors(E)
    m, n = shape(E)
    if len(divs) != m or m != n:
        raise PreconditionError("form must be square and nondegenerate")
    return _paired_divisors(divs)


def _paired_divisors(divs):
    """The type of a nondegenerate form with elementary divisors divs, a
    divisibility chain: each pair of equal divisors once.  An odd count,
    or a divisor of odd multiplicity, is a PreconditionError."""
    m = len(divs)
    if m % 2:
        raise PreconditionError("form must have even rank")
    for i in range(0, m, 2):
        if divs[i] != divs[i + 1]:
            raise PreconditionError(
                f"elementary divisors {list(divs)} do not pair up; "
                "a divisor occurs with odd multiplicity"
            )
    return tuple(divs[::2])


def restricted_polarisation(T: PolarisedTorus, emb: SubvarietyEmbedding):
    """(gram, type) of the polarisation restricted to a sublattice.

    The restriction of a polarisation to an abelian subvariety is again a
    polarisation; its first divisor may exceed 1 and no renormalisation is
    performed.
    """
    if emb.torus != T:
        raise PreconditionError("embedding does not belong to this torus")
    J = [list(r) for r in emb.columns]
    gram_b = matmul(transpose(J), matmul([list(r) for r in T.gram], J))
    if det(gram_b) == 0:
        raise PreconditionError("restricted form is degenerate")
    return gram_b, pairing_type(gram_b)


def isogeny_degree(M) -> int:
    """|det| of an integer rational representation, entries read through
    as_int; zero determinant is an error."""
    if any(len(r) != len(M) for r in M):
        raise PreconditionError("an isogeny matrix must be square")
    d = det([[as_int(x) for x in r] for r in M])
    if d == 0:
        raise PreconditionError("matrix has determinant zero, not an isogeny")
    return abs(d)


def product(tori):
    """Product torus with globally grouped frame.

    Left column blocks of all factors come first, then all right blocks,
    so a product of standard frames is again a standard frame; the form is
    the direct sum routed through the same column order.
    """
    tori = list(tori)
    if not tori:
        raise PreconditionError("product of no tori")
    gens = tori[0].gens
    for t in tori:
        if t.gens != gens:
            raise PreconditionError("product factors must share one generator set")
    dims = [t.dim for t in tori]
    n = sum(dims)
    offsets = [sum(dims[:i]) for i in range(len(tori))]

    def global_index(f: int, local: int) -> int:
        nf = dims[f]
        if local < nf:
            return offsets[f] + local
        return n + offsets[f] + (local - nf)

    periods = [[gens.zero() for _ in range(2 * n)] for _ in range(n)]
    gram = [[0] * (2 * n) for _ in range(2 * n)]
    for f, t in enumerate(tori):
        nf = t.dim
        for i in range(nf):
            for j in range(2 * nf):
                periods[offsets[f] + i][global_index(f, j)] = t.periods[i][j]
        for i in range(2 * nf):
            for j in range(2 * nf):
                gram[global_index(f, i)][global_index(f, j)] = t.gram[i][j]
    assumption = "; ".join(sorted({t.assumptions for t in tori if t.assumptions}))
    return PolarisedTorus(gens, periods, gram, assumption)


def ambient_to_lattice(T: PolarisedTorus, vectors):
    """Rational lattice coordinates of ambient vectors, one entry per vector:
    None for a vector that is not a rational combination of the periods.

    Each vector has one (scalar or rational) entry per complex coordinate.
    The vectors, the columns of one n x k matrix, are flattened with the
    periods by monomials and solved in one rat_solve.  For periods that
    are dependent over Q (say [["1", "1"]]) the solution is not unique, and
    the one returned, silently, is rat_solve's, with free coordinates 0.
    """
    n = T.dim
    if any(len(v) != n for v in vectors):
        raise PreconditionError("ambient vector length must equal the dimension")
    V = [[v[i] if isinstance(v[i], FormalScalar) else T.gens.constant(v[i]) for v in vectors]
         for i in range(n)]
    return rat_solve(*flatten_to_int(T.periods, V))


def subgroup_lattice(points, dim):
    """Canonical basis of the lattice Z^dim + <lifts of points>.

    A finite subgroup of (Q/Z)^dim is this lattice modulo Z^dim, so two
    subgroups are equal exactly when their bases are equal, and the
    group order is 1/|det|.  The basis is the column Hermite form of N*L
    divided by N, with N the exponent of the group; HNF(N*L) = N*HNF(L),
    so the result does not depend on N.  Returns a dim x dim Fraction
    matrix whose columns are the basis.
    """
    if any(len(p.coords) != dim for p in points):
        raise PreconditionError("point dimension does not match the lattice")
    N = lcm(*(p.order for p in points))
    gens = [[N if i == j else 0 for j in range(dim)] + [int(N * p.coords[i]) for p in points]
            for i in range(dim)]
    H, _ = hnf(gens)
    return [[Fraction(H[i][j], N) for j in range(dim)] for i in range(dim)]


def subgroup_elements(points, dim):
    """All elements of the finite group generated by torsion points.

    The group can have as many elements as the product of the orders, so
    this is a test oracle for small groups; ``subgroup_lattice`` describes
    the same group by one Hermite basis.
    """
    elems = {TorsionPoint([Fraction(0)] * dim)}
    for g in points:
        current = list(elems)
        for k in range(1, g.order):
            kg = k * g
            for e in current:
                elems.add(e + kg)
    return frozenset(elems)
