import pytest

from oracles import poly_mul, poly_pow
from twistlink import statesum
from twistlink.poly import VAR_A, VAR_T, LaurentPoly


def test_constructor_drops_zero_coefficients():
    p = LaurentPoly(VAR_A, {3: 0, 1: 2})
    assert dict(p.terms()) == {1: 2}


def test_shift_scale_and_coefficient():
    p = LaurentPoly(VAR_A, {0: 1, 2: -3})
    assert dict(p.shifted(-2).terms()) == {-2: 1, 0: -3}
    assert dict((-p).terms()) == {0: -1, 2: 3}
    assert p.coefficient(2) == -3
    assert p.coefficient(5) == 0


def test_degree_span_rejects_zero():
    with pytest.raises(ValueError):
        LaurentPoly(VAR_A, {}).degree_span()


def test_variable_mismatch_rejected():
    # same table, different tags: never equal
    a = LaurentPoly(VAR_A, {0: 1})
    t = LaurentPoly(VAR_T, {0: 1})
    assert a != t
    assert a == LaurentPoly(VAR_A, {0: 1}) and hash(a) == hash(LaurentPoly(VAR_A, {0: 1}))


def test_constructor_rejects_bools():
    # True would render as span=(True,3), a row that does not parse back
    for bad in ({True: 1, 3: 2}, {0: False}, {False: True}):
        with pytest.raises(TypeError):
            LaurentPoly(VAR_T, bad)


def test_constructor_takes_int_mappings_only():
    for bad in ([(0, 1)], ((0, 1), (0, 2)), None):
        with pytest.raises(TypeError):
            LaurentPoly(VAR_A, bad)
    for bad in ({0: 1.0}, {"1": 1}, {0.5: 1}):
        with pytest.raises(TypeError):
            LaurentPoly(VAR_A, bad)
    with pytest.raises(ValueError):
        LaurentPoly("x", {0: 1})


def test_delta_power_matches_repeated_product():
    # the state sum's closing product: delta^k alone, and a table in which
    # (2A - 2A^5) * delta cancels its A^3 terms
    bracket = {-3: 1, 1: 2, 5: -2}
    for k in range(41):
        delta_k = poly_pow({2: -1, -2: -1}, k)
        assert statesum._times_delta_power({0: 1}, k) == delta_k, k
        assert statesum._times_delta_power(bracket, k) == poly_mul(bracket, delta_k), k
