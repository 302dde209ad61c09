import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlink.braid import BraidWord, free_reduce_cyclic, parse_braid, torus_braid
from twistlink.diagram import (
    Crossing,
    DTCode,
    braid_closure,
    dt_code,
    parse_dt,
    render_dt,
    writhe,
)

from oracles import grid_dt, random_knot_braid


def close(text):
    return braid_closure(parse_braid(text))


def test_trefoil_closure_shape():
    d = close("2: 1 1 1")
    assert len(d.crossings) == 3
    assert writhe(d) == 3
    assert len(d.components) == 1
    assert not d.free_loops


def test_identity_braid_closure_is_unlink():
    d = close("3:")
    assert len(d.crossings) == 0
    assert len(d.free_loops) == 3
    assert len(d.components) == 3


def test_closure_reduces_cancelling_letters():
    d = close("2: 1 -1")
    assert len(d.crossings) == 0
    assert len(d.components) == 2


def test_component_count_follows_gcd():
    for p, q in [(2, 2), (3, 3), (4, 2), (5, 3), (6, 4)]:
        assert len(braid_closure(torus_braid(p, q)).components) == gcd(p, q)


def test_components_partition_the_arcs():
    for text in ("3: 1 -2 1 -2", "4: 1 1 3", "2: 1 1 1 1", "3:"):
        d = close(text)
        arcs = sorted(a for comp in d.components for a in comp)
        ends = {a for c in d.crossings for a in (c.in_left, c.in_right, c.out_left, c.out_right)}
        assert arcs == sorted(ends | set(d.free_loops)) == list(range(len(arcs)))


def test_closure_records_are_exact_crossings():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(1, 7)
        size = rng.randint(0, 16) if n > 1 else 0
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(size))
        for c in braid_closure(BraidWord(n, letters)).crossings:
            assert type(c) is Crossing and c == Crossing(*c), (n, letters, c)
            assert (c.sign, c.in_left, c.in_right, c.out_left, c.out_right) == c


def test_dt_code_frozen_examples():
    assert dt_code(close("2: 1 1 1")).pairs == (4, 6, 2)
    assert dt_code(close("3: 1 -2 1 -2")).pairs == (4, 6, 8, 2)


def test_dt_code_rejects_non_knots():
    with pytest.raises(ValueError, match="2 components"):
        dt_code(close("2: 1 1"))
    with pytest.raises(ValueError, match="crossing"):
        dt_code(close("2: 1 -1"))


def test_dt_render_parse_round_trip():
    code = dt_code(close("3: 1 -2 1 -2"))
    assert render_dt(code) == "4 6 8 2"
    assert render_dt(code, "fig8") == "fig8: 4 6 8 2"
    assert parse_dt(render_dt(code)) == code
    assert parse_dt("fig8: 4 6 8 2") == code


def test_dt_code_validation():
    DTCode((4, 6, 2))
    DTCode((4, -6, 2))
    with pytest.raises(ValueError):
        DTCode(())
    with pytest.raises(ValueError):
        DTCode((4, 6, 6))  # duplicate
    with pytest.raises(ValueError):
        DTCode((4, 6, 10))  # not a cover of 2..2n
    with pytest.raises(ValueError):
        parse_dt("4 6 3")  # odd entry
    with pytest.raises(ValueError):
        parse_dt("4 6 x")


def test_dt_matches_grid_oracle_on_random_knots():
    rng = random.Random(20260819)
    checked = 0
    while checked < 60:
        n, letters = random_knot_braid(rng, max_strands=5, max_letters=12)
        d = braid_closure(BraidWord(n, letters))
        if not d.crossings:
            continue
        # the closure builder reduces cyclically first; walk the same word
        expect = grid_dt(n, free_reduce_cyclic(letters))
        assert dt_code(d).pairs == expect, (n, letters)
        checked += 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_dt_round_trip_property(seed):
    rng = random.Random(seed)
    n, letters = random_knot_braid(rng, max_strands=4, max_letters=10)
    d = braid_closure(BraidWord(n, letters))
    if not d.crossings:
        return
    code = dt_code(d)
    assert parse_dt(render_dt(code)) == code
