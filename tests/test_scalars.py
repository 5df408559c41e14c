from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from avtk.errors import GeneratorMismatchError, ScalarParseError
from avtk.scalars import (
    FormalScalar,
    GeneratorSet,
    exact_div,
    monomial_flatten,
    parse_scalar,
    render_scalar,
)

G = GeneratorSet(("x", "y"))
X = G.scalar("x")
Y = G.scalar("y")


def test_generator_set_rejects_bad_names():
    with pytest.raises(ValueError):
        GeneratorSet(("x", "x"))
    with pytest.raises(ValueError):
        GeneratorSet(("2x",))
    with pytest.raises(ValueError):
        GeneratorSet(("",))


def test_constant_and_zero():
    assert G.constant(0).is_zero()
    assert G.constant(Fraction(3, 2)).constant_value() == Fraction(3, 2)
    assert G.one() - G.one() == G.zero()


def test_arithmetic_identities():
    assert (X + Y) * (X - Y) == X * X - Y * Y
    assert (X + Y) ** 2 == X * X + 2 * X * Y + Y * Y
    assert X * (Y + 1) == X * Y + X
    assert 2 * X == X + X
    assert X - X == G.zero()
    assert (X / 2) * 2 == X


def test_mixed_generator_sets_rejected():
    H = GeneratorSet(("x",))
    with pytest.raises(GeneratorMismatchError):
        X + H.scalar("x")


@pytest.mark.parametrize(
    "text",
    [
        "0",
        "1",
        "-5/3",
        "x",
        "3*x",
        "x + y",
        "x*y - 2",
        "x*x + 2*x*y + y*y",
        "(x + y)*(x + y)*(x + y)",
        "x/2 - y/3",
        "-x",
    ],
)
def test_parse_render_round_trip(text):
    s = parse_scalar(G, text)
    assert parse_scalar(G, render_scalar(s)) == s
    assert parse_scalar(G, str(s)) == s


def test_parse_expands_products():
    assert parse_scalar(G, "(x + 1)*(x - 1)") == X * X - 1
    assert parse_scalar(G, "2*(x + y)") == 2 * X + 2 * Y


@pytest.mark.parametrize("text", ["x +", "(x", "x ** 2", "z", "1/0", "x/y"])
def test_parse_errors(text):
    with pytest.raises(ScalarParseError):
        parse_scalar(G, text)


def test_render_is_canonical():
    # same polynomial written two ways renders identically
    assert render_scalar(X * Y + 1) == render_scalar(1 + Y * X)
    assert str(G.zero()) == "0"


def test_exact_div():
    f = (X + Y) * (X - Y)
    assert exact_div(f, X + Y) == X - Y
    with pytest.raises(ValueError):
        exact_div(X * X + 1, X + Y)



def test_exact_div_rejects_another_generator_set():
    x_of_yx = GeneratorSet(("y", "x")).scalar("x")
    with pytest.raises(GeneratorMismatchError):
        exact_div(X * Y, x_of_yx)


def test_exact_div_accepts_an_equal_generator_set():
    twin = GeneratorSet(("x", "y"))
    assert twin is not G
    assert exact_div(X * Y, twin.scalar("x")) == Y


def test_constants_hash_like_the_numbers_they_equal():
    assert len({G.one(), 1}) == 1
    assert len({G.constant(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert len({G.zero(), 0}) == 1

def test_monomial_flatten_round_trip():
    M = [[X * Y + 2, Y], [G.zero(), X - Fraction(1, 2)]]
    monos, table = monomial_flatten(M)
    assert monos == ((0, 0), (0, 1), (1, 0), (1, 1))  # 1, y, x, x*y
    half = Fraction(1, 2)
    assert table == (
        ((2, 0, 0, 1), (0, 1, 0, 0)),
        ((0, 0, 0, 0), (-half, 0, 1, 0)),
    )


@st.composite
def small_polys(draw):
    coeffs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=-4, max_value=4),
            ),
            max_size=5,
        )
    )
    s = G.zero()
    for i, j, c in coeffs:
        s = s + G.constant(c) * X ** i * Y ** j
    return s


@given(small_polys())
def test_render_parse_identity(p):
    assert parse_scalar(G, render_scalar(p)) == p


@given(small_polys(), small_polys())
def test_product_divides_back(p, q):
    if q.is_zero():
        return
    assert exact_div(p * q, q) == p


@given(small_polys(), small_polys(), small_polys())
def test_distributivity(p, q, r):
    assert p * (q + r) == p * q + p * r


# -- arithmetic results are canonical without the validating constructor -------

_WIDE = GeneratorSet(("x", "y", "z"))
_rationals = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.builds(Fraction, st.integers(min_value=-5, max_value=5), st.integers(1, 4)),
)


@st.composite
def polys_over(draw, gens):
    monos = st.tuples(*[st.integers(0, 2)] * len(gens))
    return FormalScalar(gens, draw(st.dictionaries(monos, _rationals, max_size=5)))


@st.composite
def arithmetic_cases(draw):
    gens = draw(st.sampled_from([G, _WIDE]))
    p = draw(polys_over(gens))
    # q = p half of the time, so that p - q cancels every term
    q = p if draw(st.booleans()) else draw(polys_over(gens))
    return gens, p, q, draw(_rationals)


def _assert_canonical(gens, s):
    assert list(s.terms.items()) == list(FormalScalar(gens, s.terms).terms.items())
    assert all(type(c) is Fraction and c != 0 for c in s.terms.values())
    with pytest.raises(AttributeError):
        s.terms = {}
    with pytest.raises(AttributeError):
        s.gens = gens


@given(arithmetic_cases())
def test_arithmetic_results_match_the_validating_constructor(case):
    gens, p, q, k = case
    results = [p + q, p - q, p * q, p * k, k * p, p * 0, 0 * p, p * Fraction(0),
               -p, gens.constant(k), gens.zero(), p + k, k - p]
    if not q.is_zero():
        results.append(exact_div(p * q, q))
    for s in results:
        assert s.gens is gens
        _assert_canonical(gens, s)
    assert p * k == FormalScalar(gens, {m: c * k for m, c in p.terms.items()})
    assert (p * k == k) == (p * k == gens.constant(k))
    assert (p == 0) == p.is_zero()


def test_combining_scalars_over_different_generator_sets_fails():
    swapped = GeneratorSet(("y", "x"))  # the same names in another order
    same = GeneratorSet(("x", "y"))  # equal to G, a separate object
    p = (X + 2 * Y) * 3
    for q in (swapped.scalar("x") * 2, swapped.constant(Fraction(1, 2)), swapped.zero()):
        for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
            with pytest.raises(GeneratorMismatchError):
                getattr(p, op)(q)
            with pytest.raises(GeneratorMismatchError):
                getattr(q, op)(p)
    assert p + same.scalar("x") == p + X
    assert (p * same.scalar("y")).terms == (p * Y).terms


@pytest.mark.parametrize("mono", [(-1, 0), (1,), (1, 0, 0), (1.0, 0), ("1", 0)])
def test_constructor_rejects_bad_monomials(mono):
    with pytest.raises(ValueError):
        FormalScalar(G, {mono: 1})


def test_constructor_normalises_coefficients():
    s = FormalScalar(G, {(1, 0): 2, (0, 1): 0, (0, 0): Fraction(0)})
    assert list(s.terms.items()) == [((1, 0), Fraction(2))]
    assert type(s.terms[(1, 0)]) is Fraction
