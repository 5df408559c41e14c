import random
from fractions import Fraction
from itertools import product as iter_product

import pytest

from avtk import elliptic
from avtk.elliptic import (
    MAX_DISCRIMINANT,
    QuadNumber,
    formal_quotient_isomorphic,
    quotient_isomorphic,
    reduce_tau,
)
from avtk.errors import PreconditionError, ScalarParseError


# -- exact quadratic numbers -----------------------------------------------------

def test_parse_and_str_round_trip():
    for text in ["sqrt(-2)", "(1+sqrt(-3))/2", "(-3+2*sqrt(-1))/5", "(0+1*sqrt(-7))/3"]:
        t = QuadNumber.parse(text)
        assert QuadNumber.parse(str(t)) == t


def test_parse_rejects_garbage():
    for text in ["", "tau", "sqrt(2)", "sqrt(-4)", "(1+sqrt(-3))/0", "1+sqrt(-3)/"]:
        with pytest.raises(ScalarParseError):
            QuadNumber.parse(text)


def test_a_zero_denominator_is_a_precondition_error():
    # it was a ZeroDivisionError, the one refusal that was not an AvtkError
    with pytest.raises(PreconditionError, match="^zero denominator$"):
        QuadNumber(0, 1, 0, -1)
    with pytest.raises(ScalarParseError, match=r"^zero denominator \(at offset 0\)$"):
        QuadNumber.parse("sqrt(-1)/0")


def test_values_are_reduced():
    a = QuadNumber(2, 2, 4, -3)
    b = QuadNumber(1, 1, 2, -3)
    assert a == b
    assert a.re() == Fraction(1, 2)
    assert a.norm2() == Fraction(1 + 3, 4)


def test_imaginary_part_must_be_positive():
    with pytest.raises(PreconditionError):
        QuadNumber(1, 0, 2, -3)
    with pytest.raises(PreconditionError):
        QuadNumber(1, -1, 2, -3)


def test_discriminant_must_be_squarefree_negative():
    with pytest.raises(PreconditionError):
        QuadNumber(0, 1, 1, -4)
    with pytest.raises(PreconditionError):
        QuadNumber(0, 1, 1, 5)


def test_discriminant_above_the_cap_is_refused_before_the_squarefree_test(monkeypatch):
    def no_trial_division(d):
        raise AssertionError("trial division on an over-cap discriminant")

    monkeypatch.setattr(elliptic, "_squarefree", no_trial_division)
    with pytest.raises(PreconditionError, match="at most"):
        QuadNumber(1, 1, 2, -(MAX_DISCRIMINANT + 1))
    with pytest.raises(ScalarParseError):
        QuadNumber.parse("(1+sqrt(-100000000000031))/2")


def test_squarefree_is_checked_once_per_parsed_period(monkeypatch):
    calls = []
    real = elliptic._squarefree

    def counting(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(elliptic, "_squarefree", counting)
    tau = QuadNumber.parse("(37+sqrt(-7))/61")
    assert calls == [-7]
    assert len(reduce_tau(tau).trail) == 6
    # Moebius steps on both sides, a division and two trail checks
    assert quotient_isomorphic(tau, 4) is False
    assert calls == [-7]


def test_mobius_requires_determinant_one():
    t = QuadNumber.parse("sqrt(-2)")
    with pytest.raises(PreconditionError):
        t.mobius(2, 0, 0, 1)


def test_mobius_matches_field_arithmetic():
    # (tau + 1) under [[1,1],[0,1]], and -1/tau under [[0,-1],[1,0]]
    t = QuadNumber.parse("(1+sqrt(-5))/2")
    shifted = t.mobius(1, 1, 0, 1)
    assert shifted.re() == t.re() + 1
    assert shifted.norm2() == t.norm2() + 2 * t.re() + 1
    inv = t.mobius(0, -1, 1, 0)
    assert inv.norm2() == Fraction(1) / t.norm2()
    assert inv.re() == -t.re() / t.norm2()


def test_divided_by():
    t = QuadNumber.parse("sqrt(-2)")
    half = t.divided_by(2)
    assert half.norm2() == t.norm2() / 4
    with pytest.raises(PreconditionError):
        t.divided_by(0)


# -- reduction to the fundamental domain ----------------------------------------

def in_fundamental_domain(t):
    """|t| >= 1 and -1/2 <= Re t < 1/2, boundary convention: on |t| = 1
    keep Re t <= 0."""
    n, r = t.norm2(), t.re()
    if not (Fraction(-1, 2) <= r < Fraction(1, 2)):
        return False
    if n < 1:
        return False
    if n == 1 and r > 0:
        return False
    return True


def test_reduce_known_values():
    assert str(reduce_tau(QuadNumber.parse("sqrt(-2)")).reduced) == "(0+1*sqrt(-2))/1"
    # tau on the unit circle with positive real part flips to negative
    t = QuadNumber.parse("(1+sqrt(-3))/2")
    assert str(reduce_tau(t).reduced) == "(-1+1*sqrt(-3))/2"
    # i is already reduced
    i = QuadNumber.parse("sqrt(-1)")
    assert reduce_tau(i).reduced == i


def test_reduce_records_a_verified_trail():
    t = QuadNumber.parse("(7+2*sqrt(-2))/3")
    out = reduce_tau(t)
    a, b, c, d = out.matrix[0][0], out.matrix[0][1], out.matrix[1][0], out.matrix[1][1]
    assert a * d - b * c == 1
    assert t.mobius(a, b, c, d) == out.reduced
    assert in_fundamental_domain(out.reduced)


def _sl2_orbit(t, bound):
    """All images of t under SL(2,Z) matrices with entries up to bound."""
    out = set()
    rng = range(-bound, bound + 1)
    for a, b, c, d in iter_product(rng, rng, rng, rng):
        if a * d - b * c == 1:
            out.add(t.mobius(a, b, c, d))
    return out


def test_reduction_agrees_with_brute_force_orbits():
    rng = random.Random(20260819)
    checked = 0
    while checked < 50:
        p = rng.randint(-6, 6)
        q = rng.randint(1, 3)
        r = rng.randint(1, 4)
        disc = rng.choice([-1, -2, -3, -5, -6, -7])
        t = QuadNumber(p, q, r, disc)
        out = reduce_tau(t)
        if max(abs(x) for row in out.matrix for x in row) > 6:
            continue  # reduction needs entries beyond the brute-force bound
        orbit = _sl2_orbit(t, 6)
        assert out.reduced in orbit
        in_domain = {u for u in orbit if in_fundamental_domain(u)}
        assert in_domain == {out.reduced}
        checked += 1


# -- the quotient decision --------------------------------------------------------

def test_quotient_isomorphic_examples():
    assert quotient_isomorphic(QuadNumber.parse("sqrt(-2)"), 2) is True
    assert quotient_isomorphic(QuadNumber.parse("sqrt(-1)"), 2) is False
    assert quotient_isomorphic(QuadNumber.parse("sqrt(-3)"), 3) is True
    assert quotient_isomorphic(QuadNumber.parse("sqrt(-3)"), 2) is False


def test_quotient_isomorphic_rejects_bad_n():
    with pytest.raises(PreconditionError):
        quotient_isomorphic(QuadNumber.parse("sqrt(-2)"), 0)


def test_sqrt_minus_two_halves_to_its_inverse():
    t = QuadNumber.parse("sqrt(-2)")
    assert t.divided_by(2) == t.mobius(0, -1, 1, 0)


def test_formal_quotient_never_isomorphic():
    v = formal_quotient_isomorphic("tau", 2)
    assert v.isomorphic is False
    assert "c = 0" in v.certificate and "c != 0" in v.certificate
    assert "degree 2" in v.certificate
    v3 = formal_quotient_isomorphic("sigma", 3)
    assert "sigma" in v3.certificate and not v3.isomorphic
