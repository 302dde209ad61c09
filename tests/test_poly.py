import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import poly_mul, poly_pow
from twistlink import statesum, transfer
from twistlink.poly import VAR_A, VAR_T, LaurentPoly, pack, unpack


def test_constructor_drops_zero_coefficients():
    p = LaurentPoly(VAR_A, {3: 0, 1: 2})
    assert dict(p.terms()) == {1: 2}


def test_shift_scale_and_coefficient():
    p = LaurentPoly(VAR_A, {0: 1, 2: -3})
    assert dict(p.shifted(-2).terms()) == {-2: 1, 0: -3}
    assert dict((-p).terms()) == {0: -1, 2: 3}
    assert p.coefficient(2) == -3
    assert p.coefficient(5) == 0


def test_repr_and_is_zero():
    cases = [
        ({}, "LaurentPoly('t', 0)"),
        ({0: 3}, "LaurentPoly('t', 3)"),
        ({1: -2}, "LaurentPoly('t', -2*t)"),
        ({3: 2, -2: 1, 1: 4, 0: -1}, "LaurentPoly('t', 1*t^-2 + -1 + 4*t + 2*t^3)"),
    ]
    for coeffs, text in cases:
        p = LaurentPoly(VAR_T, coeffs)
        assert repr(p) == text
        assert p.is_zero == (not coeffs)
    assert LaurentPoly(VAR_A, {2: 0}).is_zero


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


@st.composite
def slot_runs(draw):
    """A width of 2-90 bits and 0-100 signed slots that fit it."""
    width = draw(st.integers(min_value=2, max_value=90))
    bound = (1 << (width - 1)) - 1
    fields = draw(st.lists(st.integers(min_value=-bound, max_value=bound), max_size=100))
    return width, fields


@given(slot_runs(), st.integers())
@example((3, [1, -3]), 0)  # a negative top slot
@example((2, [1] * 33 + [-1]), -7)  # past the 32-slot leaf, negative on top
@example((90, [-(1 << 88)] * 100), 5)
def test_unpack_inverts_pack(run, low):
    width, fields = run
    expected = {low + 2 * i: c for i, c in enumerate(fields) if c}
    assert unpack(pack(fields, width), low, width) == expected


def test_packed_delta_power_is_the_ring_power():
    # delta^k = (-1)^k A^(-2k) (1 + A^4)^k, and A^4 is two slots up; pack
    # is evaluation at 2^(2 width), so this holds at any width
    for width in (1, 2, 3, 7, 20):
        for k in range(61):
            ring = (-1) ** k * (1 + (1 << 2 * width)) ** k
            assert transfer._packed_delta_power(k, width) == ring, (width, k)
