import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistlink.braid import (
    BraidWord,
    GeneralizedTTKSpec,
    Stabilize,
    TwistedTorusSpec,
    TwistRegion,
    conjugate,
    free_reduce_cyclic,
    gttk_braid,
    insert_full_twists,
    markov_destabilize,
    markov_stabilize,
    mirror,
    parse_braid,
    render_braid,
    torus_braid,
    ttk_braid,
)
from twistlink.surgery import INF, blow_down_axis

import oracles

letters_st = st.lists(
    st.integers(min_value=-3, max_value=3).filter(lambda g: g != 0), max_size=14
).map(tuple)


def test_braid_word_validation():
    BraidWord(2, (1, -1))
    with pytest.raises(ValueError):
        BraidWord(1, (1,))
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(3, (3,))


def test_braid_word_is_not_reversible():
    # len() is the letter count, so the sequence fallback would misread it
    b = BraidWord(2, (1, 1, 1))
    with pytest.raises(TypeError, match="not reversible"):
        reversed(b)
    assert len(b) == 3
    assert list(b) == [2, (1, 1, 1)]


def test_braid_word_rejects_strand_counts_that_do_not_render_back():
    # 2.0 would render as "2.0:" and True as "True:", which parse_braid rejects
    for strands in (2.0, True, "2", None):
        with pytest.raises(ValueError, match="strand count must be an integer"):
            BraidWord(strands)


def test_braid_word_rejects_bool_letters():
    # True would render as "2: True True True", which does not parse back
    with pytest.raises(ValueError, match="nonzero integers"):
        BraidWord(2, (True,) * 3)


def test_writhe_and_permutation():
    b = BraidWord(3, (1, 2, -1, 2))
    assert b.writhe() == 2
    # 1-indexed exit positions per starting strand
    assert b.permutation() == [2, 3, 1]
    assert BraidWord(2, ()).permutation() == [1, 2]


def test_torus_braid_shape():
    b = torus_braid(3, 4)
    assert b.strands == 3
    assert b.letters == (1, 2) * 4
    assert torus_braid(3, -2).letters == (-2, -1) * 2
    assert torus_braid(3, 0).letters == ()
    with pytest.raises(ValueError):
        torus_braid(1, 5)


def test_mirror_and_conjugate():
    b = BraidWord(3, (1, -2))
    assert mirror(b).letters == (-1, 2)
    assert conjugate(b, 2).letters == (2, 1, -2, -2)
    with pytest.raises(ValueError):
        conjugate(b, 0)


def test_markov_stabilize_destabilize_round_trip():
    b = BraidWord(2, (1, 1, 1))
    up = markov_stabilize(b, 1)
    assert up.strands == 3 and up.letters == (1, 1, 1, 2)
    assert markov_destabilize(up) == b
    with pytest.raises(ValueError):
        markov_destabilize(b)  # last letter reused elsewhere
    with pytest.raises(ValueError):
        markov_destabilize(BraidWord(3, (2, 1, 2)))


def test_free_reduce_cyclic_wraps_around():
    assert free_reduce_cyclic((1, 2, -2, -1)) == ()
    assert free_reduce_cyclic((-1, 2, 1)) == (2,)
    assert free_reduce_cyclic(()) == ()
    assert free_reduce_cyclic((1, 1, -1, 1)) == (1, 1)


@given(letters_st)
def test_free_reduce_cyclic_idempotent(letters):
    once = free_reduce_cyclic(letters)
    assert free_reduce_cyclic(once) == once


@st.composite
def reducible_words(draw):
    """A word with nothing to cancel, maybe with cancelling pairs put in and conjugated."""
    n = draw(st.integers(min_value=2, max_value=6))
    letter = st.integers(min_value=1, max_value=n - 1).flatmap(lambda j: st.sampled_from((j, -j)))
    word: list[int] = []
    for g in draw(st.lists(letter, max_size=14)):
        if not word or word[-1] != -g:
            word.append(g)
    while len(word) > 1 and word[0] == -word[-1]:
        word.pop()
    places = st.integers(min_value=0, max_value=20)
    for g, at in draw(st.lists(st.tuples(letter, places), max_size=3)):
        at %= len(word) + 1
        word[at:at] = [g, -g]
    for g in draw(st.lists(letter, max_size=3)):
        word = [g, *word, -g]
    return tuple(word)


@settings(max_examples=200, derandomize=True, database=None)
@given(reducible_words())
@example(())
@example((2,))
@example((1, 2, 1, -2))  # nothing to cancel
@example((1, -2, 2, 1))  # a pair inside
@example((2, 1, 1, -2))  # a pair at the seam
def test_free_reduce_cyclic_matches_the_stack_pass(word):
    reduced = free_reduce_cyclic(word)
    expected = oracles.free_reduce_cyclic(word)
    assert reduced == expected
    if expected == word:  # nothing cancels: the same tuple comes back
        assert reduced is word


def _naive_free_reduce_cyclic(letters):
    # delete the first adjacent inverse pair, or else both ends when they
    # cancel, until neither is left
    word = list(letters)
    while True:
        i = next((i for i in range(len(word) - 1) if word[i] == -word[i + 1]), None)
        if i is not None:
            del word[i : i + 2]
        elif len(word) >= 2 and word[0] == -word[-1]:
            word = word[1:-1]
        else:
            return tuple(word)


def test_free_reduce_cyclic_matches_naive_reference():
    rng = random.Random(20)
    for _ in range(300):
        n = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 12))]
        for _ in range(rng.randint(0, 6)):
            g = rng.choice((1, -1)) * rng.randint(1, n - 1)
            if rng.random() < 0.5:
                word = [g] + word + [-g]  # a conjugation, cancelling at the seam
            else:
                at = rng.randint(0, len(word))
                word[at:at] = [g, -g]
        assert free_reduce_cyclic(tuple(word)) == _naive_free_reduce_cyclic(word), word


def test_free_reduce_cyclic_is_linear_at_the_seam():
    # k pairs cancel across the closure seam; trimming the ends by slicing
    # a new copy per pair took 0.9 s at k = 16,000, growing as k squared
    k = 100_000
    word = (2,) * k + (1,) + (-2,) * k
    start = time.perf_counter()
    assert free_reduce_cyclic(word) == (1,)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"{elapsed:.3f}s over the 5.0s budget"


def test_ttk_braid_frozen_words():
    word = ttk_braid(TwistedTorusSpec(8, 3, 4, -2))
    assert word.strands == 8
    assert word.letters == tuple(range(1, 8)) * 3 + (-3, -2, -1) * 8
    small = ttk_braid(TwistedTorusSpec(3, 2, 2, 1))
    assert small.letters == (1, 2, 1, 2, 1, 1)


def test_ttk_braid_contract_errors():
    with pytest.raises(ValueError, match="gcd"):
        TwistedTorusSpec(4, 2, 3, 1)
    with pytest.raises(ValueError):
        TwistedTorusSpec(2, 3, 1, 1)  # r < 2
    with pytest.raises(ValueError):
        TwistedTorusSpec(2, 3, 2, 0)  # s = 0
    with pytest.raises(ValueError, match="gttk"):
        ttk_braid(TwistedTorusSpec(3, 2, 5, 1))  # r > p needs the general form


def test_gttk_braid_frozen_word():
    spec = GeneralizedTTKSpec(
        5, 2, (TwistRegion(1, 3, 1), TwistRegion(1, 2, -2))
    )
    b = gttk_braid(spec)
    assert b.strands == 5
    assert b.letters == (1, 2, 3, 4) * 2 + (1, 2) * 3 + (-1,) * 4


def test_gttk_stabilize_widens():
    spec = GeneralizedTTKSpec(2, 3, (Stabilize(1), TwistRegion(2, 2, 1)))
    b = gttk_braid(spec)
    assert b.strands == 3
    assert b.letters == (1, 1, 1, 2, 2, 2)


def test_insert_full_twists_bounds():
    b = torus_braid(3, 2)
    assert insert_full_twists(b, 1, 2, 1).letters == b.letters + (1, 1)
    with pytest.raises(ValueError):
        insert_full_twists(b, 0, 2, 1)
    with pytest.raises(ValueError):
        insert_full_twists(b, 2, 3, 1)  # runs past the last strand
    with pytest.raises(ValueError):
        insert_full_twists(b, 1, 1, 1)  # width < 2


def test_blow_down_axis_matches_ttk():
    base = torus_braid(8, 3)
    via_surgery = blow_down_axis(base, 1, 4, Fraction(1, 2))
    assert via_surgery == ttk_braid(TwistedTorusSpec(8, 3, 4, -2))
    assert blow_down_axis(base, 1, 4, Fraction(-1, 3)) == ttk_braid(TwistedTorusSpec(8, 3, 4, 3))
    with pytest.raises(ValueError, match="-1/s for integer s, got 2/3$"):
        blow_down_axis(base, 1, 4, Fraction(2, 3))  # not 1/n
    with pytest.raises(ValueError, match="-1/s for integer s, got 0$"):
        blow_down_axis(base, 1, 4, Fraction(0))
    for coeff in (INF, 1, -1.0):
        with pytest.raises(ValueError, match="^axis coefficient must be a finite rational$"):
            blow_down_axis(base, 1, 4, coeff)


def test_render_parse_round_trip():
    b = BraidWord(4, (1, -3, 2, 2))
    assert parse_braid(render_braid(b)) == b
    assert render_braid(BraidWord(1, ())) == "1:"
    assert parse_braid("1:") == BraidWord(1, ())
    with pytest.raises(ValueError):
        parse_braid("no colon here")
    with pytest.raises(ValueError):
        parse_braid("3: 1 x")


@given(letters_st)
def test_render_parse_arbitrary(letters):
    b = BraidWord(4, letters)
    assert parse_braid(render_braid(b)) == b
