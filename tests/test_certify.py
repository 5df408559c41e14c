import random
from itertools import product as iter_product

import pytest
from hypothesis import given, settings, strategies as st

from avtk import certify, parallel
from avtk.certify import (
    MAX_RESIDUES,
    NormCertificate,
    check_norm_certificate,
    norm_certificate,
)
from avtk.demos import run_demo, surface_pair
from avtk.documents import torus_from_doc
from avtk.homs import isom_search
from avtk.ppsearch import admissible_family, obstruction_report, pp_search
from avtk.scalars import GeneratorSet
from avtk.torus import product
from avtk.verdicts import Found, NotFoundUpToBound
from oracles import per_candidate_search

G = GeneratorSet(("a", "b", "c"))


def _search_polynomials(d):
    """(det_p, positive) of the admissible family of S x S^ -> S^ x S, S of
    type (1, d): the square root of its coordinate determinant that the
    pencil searches, and the leading minors of H."""
    S, Sd = surface_pair(G, d)
    pencil = admissible_family(product([S, Sd]), product([Sd, S])).pencil
    return pencil._search_polynomial(), pencil.positive


@pytest.fixture(scope="module")
def surface_products():
    return {d: _search_polynomials(d) for d in range(2, 101)}


def _every_parity(rank):
    return frozenset(iter_product((0, 1), repeat=rank))


# -- the certificate on S x S^ ------------------------------------------------------

def test_the_certificate_exists_exactly_where_minus_one_is_not_a_square(surface_products):
    moduli = set()
    for d, (det_p, positive) in surface_products.items():
        cert = norm_certificate(det_p, positive)
        assert (cert is not None) is obstruction_report(d)["obstruction"], d
        if cert is None:
            continue
        assert check_norm_certificate(cert, det_p, positive), d
        # the minors are d*c0, d*c0**2, c0*q and q**2, q = d*c0*c2 - c1**2
        assert (cert.a, cert.b, cert.k, cert.u) == (2, 0, 2, 1), d
        assert cert.h == ((-1, ((1, 2),)), (d, ((0, 1), (2, 1)))), d
        assert d % cert.m == 0 and (cert.m == 4 or cert.m % 4 == 3), d
        moduli.add(cert.m)
    assert {3, 4, 7, 11, 83} <= moduli


def _mutants(cert):
    h = cert.h
    yield "k", NormCertificate(cert.a, cert.b, h, cert.k - 1, cert.u, cert.m)
    yield "k", NormCertificate(cert.a, cert.b, h, cert.k + 1, cert.u, cert.m)
    yield "u", NormCertificate(cert.a, cert.b, h, cert.k, -cert.u, cert.m)
    negated = tuple((-coeff, fs) for coeff, fs in h)
    yield "h negated", NormCertificate(cert.a, cert.b, negated, cert.k, cert.u, cert.m)
    yield "swapped", NormCertificate(cert.b, cert.a, h, cert.k, cert.u, cert.m)
    yield "no b", NormCertificate(cert.a, None, h, cert.k, cert.u, cert.m)
    yield "b = a", NormCertificate(cert.a, cert.a, h, cert.k, cert.u, cert.m)
    yield "k = 0", NormCertificate(cert.a, cert.b, h, 0, 1, cert.m)
    yield "u = 2", NormCertificate(cert.a, cert.b, h, cert.k, 2, cert.m)
    yield "k a bool", NormCertificate(cert.a, cert.b, h, True, cert.u, cert.m)
    yield "constant h", NormCertificate(cert.a, cert.b, ((2, ()),), cert.k, cert.u, cert.m)
    # moduli at which some residue vector gives h = 1 (c1 = 0, c0 * c2 = 1 / d
    # for an m prime to d; c1 = 1 mod 2)
    for m in (2, 5, 13):
        yield f"m = {m}", NormCertificate(cert.a, cert.b, h, cert.k, cert.u, m)
    yield "m = 1", NormCertificate(cert.a, cert.b, h, cert.k, cert.u, 1)
    # h mod 1000003 holds all three variables: too many residues to check
    yield "m too large", NormCertificate(cert.a, cert.b, h, cert.k, cert.u, 1000003)


@pytest.mark.parametrize("d", [3, 4, 7, 12])
def test_the_checker_rejects_every_mutated_certificate(d, surface_products):
    det_p, positive = surface_products[d]
    cert = norm_certificate(det_p, positive)
    assert check_norm_certificate(cert, det_p, positive)
    for what, mutant in _mutants(cert):
        assert not check_norm_certificate(mutant, det_p, positive), (d, what)
    # the same certificate against another pencil's polynomials
    for other in (5, 6, 11):
        assert not check_norm_certificate(cert, *surface_products[other]), (d, other)


def test_a_modulus_at_which_h_takes_one_is_rejected_by_its_residues(surface_products):
    # h = 3*c0*c2 - c1**2 mod 3 is -c1**2, never 1; mod 5 it is 1 at c1 = 2
    det_p, positive = surface_products[3]
    cert = norm_certificate(det_p, positive)
    assert cert.m == 3
    h = {fs: coeff for coeff, fs in cert.h}
    assert (3 * 0 * 0 - 2 ** 2) % 5 == 1 and h == {((0, 1), (2, 1)): 3, ((1, 2),): -1}
    assert not check_norm_certificate(NormCertificate(2, 0, cert.h, 2, 1, 5), det_p, positive)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 60), st.integers(1, 3))
def test_no_member_of_a_refuted_surface_family_passes_at_small_bounds(d, bound):
    det_p, positive = _search_polynomials(d)
    if norm_certificate(det_p, positive) is not None:
        assert per_candidate_search(3, bound, det_p, positive, (), _every_parity(3)) is None


# -- synthetic pencils: the refuter is sound ----------------------------------------

def _sparse_poly(terms):
    """{exponent tuple: coefficient} in parallel's sparse form."""
    return parallel._sparse([(c, mono) for mono, c in sorted(terms.items()) if c])


def _times(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(map(sum, zip(m1, m2)))
            out[mono] = out.get(mono, 0) + c1 * c2
    return {mono: c for mono, c in out.items() if c}


MONOMIALS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1),
             (0, 0, 0)]


def _seeded_pencil(rng):
    """(det_p, positive): det_p = u * h**k and positive = [s * h * g, t * g]
    for random h and g, sometimes with a third condition, in a random order."""
    h = {mono: rng.randint(-6, 6) for mono in rng.sample(MONOMIALS, rng.randint(1, 4))}
    h = {mono: c for mono, c in h.items() if c} or {(0, 1, 0): 1}
    g = {mono: rng.randint(1, 3) for mono in rng.sample(MONOMIALS[:5], rng.randint(1, 2))}
    det = {(0, 0, 0): rng.choice((1, -1))}
    for _ in range(rng.randint(1, 2)):
        det = _times(det, h)
    s, t = rng.randint(1, 4), rng.randint(1, 4)
    positive = [{mono: s * c for mono, c in _times(h, g).items()},
                {mono: t * c for mono, c in g.items()}]
    if rng.random() < 0.3:
        positive.append({mono: rng.choice((-2, -1, 1, 2)) for mono in MONOMIALS[:2]})
    rng.shuffle(positive)
    return _sparse_poly(det), tuple(map(_sparse_poly, positive))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 2))
def test_no_member_of_a_refuted_synthetic_pencil_passes(seed, bound):
    det_p, positive = _seeded_pencil(random.Random(seed))
    cert = norm_certificate(det_p, positive)
    if cert is not None:
        assert check_norm_certificate(cert, det_p, positive)
        assert per_candidate_search(3, bound, det_p, positive, (), _every_parity(3)) is None


def test_synthetic_pencils_are_refuted_and_searched_alike():
    # the draws of the test above hold both refuted pencils and pencils with hits
    rng = random.Random(36)
    refuted = passing = 0
    for _ in range(300):
        det_p, positive = _seeded_pencil(rng)
        cert = norm_certificate(det_p, positive)
        hit = per_candidate_search(3, 2, det_p, positive, (), _every_parity(3))
        assert cert is None or hit is None, (det_p, positive)
        refuted += cert is not None
        passing += hit is not None
    assert refuted > 20 and passing > 20, (refuted, passing)


# -- where the pencil runs the refuter ---------------------------------------------

def test_a_refuted_family_is_searched_without_enumerating(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("the search enumerated candidates")

    monkeypatch.setattr(parallel, "run_search", no_enumeration)
    for d in (3, 4, 7):
        S, Sd = surface_pair(G, d)
        A, Ahat = product([S, Sd]), product([Sd, S])
        fam = admissible_family(A, Ahat)
        for bound in (1, 25, 50, 10 ** 6):
            assert pp_search(A, Ahat, bound, fam) == NotFoundUpToBound(
                bound=bound, tested=(2 * bound + 1) ** 3)


def test_only_pencils_with_positive_conditions_try_the_refuter(monkeypatch):
    calls = []
    refuter = parallel.norm_certificate

    def spy(det_p, positive):
        calls.append(len(positive))
        return refuter(det_p, positive)

    monkeypatch.setattr(parallel, "norm_certificate", spy)
    S, Sd = surface_pair(G, 3)
    A, Ahat = product([S, Sd]), product([Sd, S])
    assert isinstance(isom_search(A, Ahat, bound=3), Found)
    assert isinstance(isom_search(A, Ahat, bound=1, polarised=True), Found)
    ex41 = run_demo("ex-4.1", n=2, bound=1).documents
    isom_search(torus_from_doc(ex41["quotient-standard"]), torus_from_doc(ex41["dual"]), 1)
    assert isinstance(parallel.Pencil([[[1]], [[2]]]).search(2), Found)
    assert isinstance(parallel.Pencil([[[1]]], zero=[[(1, (1,))]]).search(1), NotFoundUpToBound)
    assert calls == []
    assert isinstance(pp_search(A, Ahat, bound=2), NotFoundUpToBound)
    assert calls == [4]  # one per family pencil, with its four leading minors
    S, Sd = surface_pair(G, 5)
    assert isinstance(pp_search(product([S, Sd]), product([Sd, S]), bound=2), Found)
    assert calls == [4, 4]


def test_the_refuter_spends_at_most_its_residue_cap(monkeypatch):
    # every residue vector either call evaluates passes through _takes_one
    spent = []
    takes_one = certify._takes_one

    def counted(terms, nvars, m):
        hit, evaluations = takes_one(terms, nvars, m)
        spent.append(evaluations)
        return hit, evaluations

    monkeypatch.setattr(certify, "_takes_one", counted)
    for d in (5, 13, 97, 83):
        spent.clear()
        cert = norm_certificate(*_search_polynomials(d))
        assert (cert is None) is (d % 4 == 1)
        assert 0 < sum(spent) <= MAX_RESIDUES
