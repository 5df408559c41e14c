"""Certificates that a whole bounded search is empty, at every bound.

A pencil search asks for c with det_p(c) = +-1 and every ``positive``
polynomial > 0 at c (parallel.Pencil).  norm_certificate looks for a
proof that no integer c does both, and check_norm_certificate re-derives
every fact of one from the polynomials alone, with arithmetic of its own.

The norm-form certificate (a, b, h, k, u, m) states, writing pp(P) for
P / content(P) with a positive content:

  * pp(positive[a]) = h * pp(positive[b]), for an index b != a, or
    h = pp(positive[a]) when b is None.  So h(c) > 0 wherever both
    conditions hold: a quotient of positive values;
  * det_p = u * h**k, with u = +-1 and k >= 1.  So det_p(c) = +-1 forces
    |h(c)| = 1, hence h(c) = 1;
  * no residue vector modulo m makes h = 1 mod m.  Only the variables
    that occur in h reduced mod m are enumerated.

Together they rule out every c.  On S x S^, with S of type (1, d), the
admissible family's leading minors are d*c0, d*c0**2, c0*q and q**2, with
q = d*c0*c2 - c1**2, so a = 2, b = 0, h = q, k = 2 and u = 1, and an m
exists exactly where -1 is not a square mod d;
m is the least of 4, if 4 divides d, and the primes = 3 mod 4 dividing d.

norm_certificate divides the primitive parts pairwise (intlinalg._poly_div
on monomials packed by scalars._packing), takes det_p's root by
repeated division, and tries the prime powers m of the primes dividing
h's coefficients, smallest first.  Both it and the checker spend at most
MAX_RESIDUES evaluations of h modulo m; a modulus whose residues would
exceed what is left is skipped, and the checker rejects one outright.
"""

from __future__ import annotations

from itertools import product as iter_product
from math import gcd

from .errors import Value
from .intlinalg import _poly_div
from .scalars import _packing

# The residue work of one norm_certificate call, and of one check: at most
# this many evaluations of h modulo m, over every h and m tried.
MAX_RESIDUES = 100_000


class NormCertificate(Value):
    """pp(positive[a]) = h * pp(positive[b]) (h = pp(positive[a]) when b is
    None), det_p = u * h**k, and h = 1 has no solution modulo m; h is a
    polynomial in the sparse form of parallel: (coefficient, ((variable,
    exponent), ...)) pairs."""

    __slots__ = ("a", "b", "h", "k", "u", "m")

    def __init__(self, a, b, h, k, u, m):
        for name, value in zip(self.__slots__, (a, b, tuple(h), k, u, m)):
            object.__setattr__(self, name, value)

    def _key(self):
        return self.a, self.b, self.h, self.k, self.u, self.m


def norm_certificate(det_p, positive):
    """A NormCertificate that no c has det_p(c) = +-1 with every ``positive``
    polynomial > 0 at c, or None; the polynomials are in parallel's sparse
    form.  Pairs (a, b) are tried in order, b = None first for each a."""
    polys = (det_p, *positive)
    nvars = 1 + max((v for p in polys for _, fs in p for v, _ in fs), default=-1)
    degree = max((sum(e for _, e in fs) for p in polys for _, fs in p), default=0)
    units, unpack, guard = _packing(max(nvars, 1), max(degree, 1))

    def pack(p):
        return {sum(e * units[v] for v, e in fs): coeff for coeff, fs in p}

    det_packed = pack(det_p)
    primitive = [_primitive(pack(p)) for p in positive]
    budget = MAX_RESIDUES
    for a, pa in enumerate(primitive):
        if not pa:
            continue
        for b in (None, *(i for i, pb in enumerate(primitive) if i != a and pb)):
            try:
                h = pa if b is None else _poly_div(pa, primitive[b], guard)
                root = _root(det_packed, h, guard)
            except ValueError:
                continue
            if root is None:
                continue
            h_sparse = tuple((coeff, tuple((v, e) for v, e in enumerate(unpack(mono)) if e))
                             for mono, coeff in sorted(h.items()))
            m, spent = _first_modulus(h_sparse, budget)
            budget -= spent
            if m is not None:
                return NormCertificate(a, b, h_sparse, root[1], root[0], m)
    return None


def _root(f, h, guard):
    """(u, k) with f = u * h**k, u = +-1 and k >= 1, by repeated exact
    division; None when h is constant or f is not such a power.  _poly_div
    raises ValueError where h does not divide."""
    if not any(h):  # packed 0 is the constant monomial
        return None
    k = 0
    while any(f):
        f = _poly_div(f, h, guard)
        k += 1
    u = f.get(0)
    return (u, k) if k and u in (1, -1) and len(f) == 1 else None


def _first_modulus(h, budget):
    """(m, evaluations spent): m is the smallest prime power, of a prime
    dividing a coefficient of h, at which h = 1 has no solution, or None.
    Powers of each prime are taken while their residue vectors number at
    most MAX_RESIDUES, and a modulus is tried only while they fit in what
    is left of budget."""
    moduli = []
    for p in _primes(abs(coeff) for coeff, _ in h):
        m = p
        while True:
            terms, variables = _reduced(h, m)
            if m ** len(variables) > MAX_RESIDUES:
                break
            moduli.append((m, terms, len(variables)))
            m *= p
    spent = 0
    for m, terms, nvars in sorted(moduli):
        if m ** nvars > budget - spent:
            continue
        hit, evaluations = _takes_one(terms, nvars, m)
        spent += evaluations
        if not hit:
            return m, spent
    return None, spent


def _primes(values):
    """The primes up to MAX_RESIDUES that divide one of the positive ints
    ``values``, by trial division."""
    out = set()
    for n in values:
        d = 2
        while d * d <= n and d <= MAX_RESIDUES:
            if n % d == 0:
                out.add(d)
                while n % d == 0:
                    n //= d
            d += 1
        if 1 < n <= MAX_RESIDUES and d * d > n:
            out.add(n)
    return out


def _reduced(h, m):
    """(terms, variables): the terms of h whose coefficient is not 0 mod m,
    reduced, with each variable replaced by its position in ``variables``,
    the variables they hold, ascending."""
    kept = [(coeff % m, fs) for coeff, fs in h if coeff % m]
    variables = sorted({v for _, fs in kept for v, _ in fs})
    position = {v: i for i, v in enumerate(variables)}
    return [(coeff, tuple((position[v], e) for v, e in fs)) for coeff, fs in kept], variables


def _takes_one(terms, nvars, m):
    """(whether some residue vector x makes the reduced terms sum to 1 mod m,
    the number of vectors evaluated), stopping at the first that does."""
    spent = 0
    for x in iter_product(range(m), repeat=nvars):
        spent += 1
        total = 0
        for coeff, fs in terms:
            for v, e in fs:
                coeff *= x[v] ** e
            total += coeff
        if total % m == 1:
            return True, spent
    return False, spent


def check_norm_certificate(cert, det_p, positive) -> bool:
    """Whether cert proves that no c has det_p(c) = +-1 with every ``positive``
    polynomial > 0 at c, re-derived from det_p and positive alone.

    The identities are expanded over maps {monomial: coefficient} with
    monomials as sorted (variable, exponent) tuples, and h is evaluated in
    full at every residue vector of the variables that h mod m holds, the
    others 0; a certificate that needs more than MAX_RESIDUES of them, a
    constant h, or k above the degree of det_p is rejected.  Any m >= 2
    serves: h(c) = 1 would give h(c) = 1 mod m.
    """
    a, b, k, u, m = cert.a, cert.b, cert.k, cert.u, cert.m
    n = len(positive)
    if not (_index(a, n) and (b is None or (_index(b, n) and b != a))):
        return False
    if not (type(k) is int and k >= 1 and type(u) is int and u in (1, -1)
            and type(m) is int and m >= 2):
        return False
    h, target = _terms(cert.h), _terms(det_p)
    if not any(h) or k > max(map(_degree, target), default=0):
        return False
    pa = _primitive(_terms(positive[a]))
    if not pa or pa != (h if b is None else _times(h, _primitive(_terms(positive[b])))):
        return False
    power = {(): u}
    for _ in range(k):
        power = _times(power, h)
    if power != target:
        return False
    left = sorted({v for mono, coeff in h.items() if coeff % m for v, _ in mono})
    if m ** len(left) > MAX_RESIDUES:
        return False
    for x in iter_product(range(m), repeat=len(left)):
        point = dict(zip(left, x))
        value = sum(coeff * _monomial_at(mono, point) for mono, coeff in h.items())
        if value % m == 1:
            return False
    return True


def _index(i, n):
    return type(i) is int and 0 <= i < n


def _terms(p):
    """The sparse polynomial p as {monomial: coefficient}, zero terms dropped."""
    out = {}
    for coeff, fs in p:
        mono = tuple(sorted(fs))
        out[mono] = out.get(mono, 0) + coeff
    return {mono: coeff for mono, coeff in out.items() if coeff}


def _degree(mono):
    return sum(e for _, e in mono)


def _primitive(p):
    """p / content(p) for a polynomial {monomial: coefficient}; {} for 0."""
    content = gcd(*p.values()) if p else 1
    return {mono: coeff // content for mono, coeff in p.items()}


def _times(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            mono = tuple(sorted(exps.items()))
            out[mono] = out.get(mono, 0) + c1 * c2
    return {mono: coeff for mono, coeff in out.items() if coeff}


def _monomial_at(mono, point):
    value = 1
    for v, e in mono:
        value *= point.get(v, 0) ** e
    return value
