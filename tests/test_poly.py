from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import poly_pow
from twistlink.poly import (
    INF,
    LaurentPoly,
    VAR_A,
    VAR_T,
    delta_power,
    format_slope,
    format_span_coeffs,
    is_integral,
    parse_slope,
)

small_polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(lambda d: LaurentPoly(VAR_A, d))


def test_constructor_drops_zero_coefficients():
    p = LaurentPoly(VAR_A, {3: 0, 1: 2})
    assert dict(p.terms()) == {1: 2}


def test_basic_arithmetic():
    a = LaurentPoly(VAR_A, {1: 1, -1: 1})
    sq = a * a
    assert dict(sq.terms()) == {2: 1, 0: 2, -2: 1}
    assert (sq - sq).is_zero
    assert dict((a + a).terms()) == {1: 2, -1: 2}
    assert sq == a**2


def test_shift_scale_and_coefficient():
    p = LaurentPoly(VAR_A, {0: 1, 2: -3})
    assert dict(p.shifted(-2).terms()) == {-2: 1, 0: -3}
    assert dict(p.scaled(-1).terms()) == {0: -1, 2: 3}
    assert p.coefficient(2) == -3
    assert p.coefficient(5) == 0


def test_degree_span_rejects_zero():
    with pytest.raises(ValueError):
        LaurentPoly(VAR_A, {}).degree_span()


def test_variable_mismatch_rejected():
    a = LaurentPoly(VAR_A, {0: 1})
    t = LaurentPoly(VAR_T, {0: 1})
    with pytest.raises(ValueError):
        a + t


def test_substitute():
    p = LaurentPoly(VAR_T, {2: 1, 0: -1, -1: 3})
    assert p.substitute(Fraction(2)) == Fraction(4) - 1 + Fraction(3, 2)


def test_format_span_coeffs_fills_interior_zeros():
    p = LaurentPoly(VAR_T, {1: 1, 4: -1})
    assert format_span_coeffs(p) == "span=(1,4); coeffs=[1,0,0,-1]"


@given(small_polys, small_polys)
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(small_polys, small_polys, small_polys)
def test_multiplication_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(small_polys, st.integers(min_value=0, max_value=4))
def test_pow_matches_repeated_product(p, k):
    expected = LaurentPoly(VAR_A, {0: 1})
    for _ in range(k):
        expected = expected * p
    assert p**k == expected


def test_delta_power_matches_repeated_product():
    for k in range(41):
        assert dict(delta_power(k).terms()) == poly_pow({2: -1, -2: -1}, k), k
    with pytest.raises(ValueError):
        delta_power(-1)


@pytest.mark.parametrize(
    "text,num,den",
    [("2/7", 2, 7), ("-1/2", -1, 2), ("4", 4, 1), ("0", 0, 1), ("6/4", 3, 2)],
)
def test_parse_slope_rationals(text, num, den):
    s = parse_slope(text)
    assert (s.numerator, s.denominator) == (num, den)


def test_parse_slope_inf_round_trip():
    assert parse_slope("inf") is INF
    assert format_slope(INF) == "inf"
    assert not is_integral(INF)
    assert is_integral(parse_slope("3"))
    assert not is_integral(parse_slope("3/2"))


def test_parse_slope_rejects_garbage():
    for bad in ("", "x", "1/0", "2/", "1.5"):
        with pytest.raises(ValueError):
            parse_slope(bad)


def test_format_slope_round_trip():
    for text in ("2/7", "-1/2", "4", "0", "inf", "-5"):
        assert format_slope(parse_slope(text)) == text


def test_format_slope_rejects_non_slopes():
    for bad in (0.5, 3, "1/2"):
        with pytest.raises(TypeError):
            format_slope(bad)
