import ast
import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlink import statesum, transfer
from twistlink.braid import (
    BraidWord,
    conjugate,
    markov_stabilize,
    mirror,
    parse_braid,
    torus_braid,
    ttk_braid,
    TwistedTorusSpec,
    free_reduce_cyclic,
)
from twistlink.cli import main
from twistlink.diagram import braid_closure
from twistlink.jones import (
    LimitExceeded,
    determinant,
    format_jones_row,
    jones,
    jones_tl,
    kauffman_bracket,
    mirror_poly,
)
from twistlink.poly import VAR_A, VAR_T, LaurentPoly

from oracles import brute_bracket, jones_dict_in_t, random_knot_braid, torus_jones


def jones_of(text):
    return jones(braid_closure(parse_braid(text)))


def as_dict(p):
    return dict(p.terms())


def test_bracket_frozen_values():
    one = kauffman_bracket(braid_closure(BraidWord(2, (1,))))
    assert as_dict(one) == {3: -1}
    trefoil = kauffman_bracket(braid_closure(BraidWord(2, (1, 1, 1))))
    assert as_dict(trefoil) == {5: -1, -3: -1, -7: 1}


def test_bracket_of_unlink_is_delta_power():
    d = braid_closure(BraidWord(3, ()))
    assert as_dict(kauffman_bracket(d)) == {4: 1, 0: 2, -4: 1}  # delta^2


def test_jones_unknot_and_trefoil():
    assert as_dict(jones_of("1:")) == {0: 1}
    v = jones_of("2: 1 1 1")
    assert v.variable == VAR_T
    assert as_dict(v) == {1: 1, 3: 1, 4: -1}


def test_jones_figure_eight_is_amphichiral():
    v = jones_of("3: 1 -2 1 -2")
    assert as_dict(v) == {-2: 1, -1: -1, 0: 1, 1: -1, 2: 1}
    assert mirror_poly(v) == v


def test_jones_left_trefoil_is_mirror():
    right = jones_of("2: 1 1 1")
    left = jones_of("2: -1 -1 -1")
    assert mirror_poly(right) == left
    assert as_dict(left) == {-1: 1, -3: 1, -4: -1}


def test_jones_hopf_link_half_integer_row():
    v = jones_of("2: 1 1")
    assert v.variable == VAR_A
    assert format_jones_row("hopf", v) == "hopf span=(1/2,5/2) coeffs=[-1,0,-1]"


def test_jones_row_without_name():
    assert format_jones_row(None, jones_of("2: 1 1 1")) == "span=(1,4) coeffs=[1,0,1,-1]"


def test_determinant_values():
    assert determinant(jones_of("2: 1 1 1")) == 3
    assert determinant(jones_of("3: 1 -2 1 -2")) == 5
    assert determinant(jones_of("2: 1 1 1 1 1")) == 5
    with pytest.raises(ValueError):
        determinant(jones_of("2: 1 1"))  # links carry the A tag


def test_two_routes_agree_on_brute_oracle():
    for text in ("2: 1 1 1", "3: 1 -2 1 -2", "2: 1 1 1 1 1", "3: 1 2 1 2"):
        b = parse_braid(text)
        v_sum = jones(braid_closure(b))
        v_tl = jones_tl(b)
        assert v_sum == v_tl
        assert as_dict(v_sum) == jones_dict_in_t(b.strands, b.letters)


def test_torus_formula_spot_checks():
    for p, q in ((2, 3), (2, 7), (3, 4), (3, 5), (4, 5)):
        v = jones(braid_closure(torus_braid(p, q)))
        assert as_dict(v) == torus_jones(p, q), (p, q)
    # the transfer route also reaches knots past the state-sum limit
    for p, q in ((2, 3), (2, 7), (3, 4), (3, 5), (4, 5), (5, 6), (6, 7), (7, 8)):
        assert as_dict(jones_tl(torus_braid(p, q))) == torus_jones(p, q), (p, q)


def test_transfer_cancels_long_unreduced_words():
    # jones_tl does not free-reduce: coefficients grow large, then cancel
    cases = [
        (4, (1, -1, 2, -2, 3, -3) * 12),
        (3, (1, 1, 1) + (2, -2, -1, 1) * 15 + (-1, 2) * 3),
        (5, (-4, 3, -2, 1) + (2, 3, 4, -4, -3, -2) * 10 + (-1, 2, -3, 4)),
    ]
    for n, letters in cases:
        reduced = BraidWord(n, free_reduce_cyclic(letters))
        assert len(reduced) < len(letters) // 4
        assert jones_tl(BraidWord(n, letters)) == jones_tl(reduced), (n, letters)


def test_transfer_guard_catches_narrow_slots(monkeypatch, capsys):
    # the bracket of this closure has coefficients that 3-bit slots cannot hold
    text = "5: " + " ".join(["1 -2 3 -4"] * 7)
    monkeypatch.setattr(transfer, "slot_width", lambda crossings, strands: 3)
    with pytest.raises(RuntimeError, match="A = 1"):
        jones_tl(parse_braid(text))
    # 28 crossings is past the default state-sum limit, so the CLI takes
    # the transfer route and must not print a row
    with pytest.raises(RuntimeError, match="A = 1"):
        main(["jones", text])
    assert capsys.readouterr().out == ""
    # this closure decodes to a wrong bracket that is still right at A = 1
    b = BraidWord(6, (4, -3, 5, -1, 4, 5, -1, -3, 2, 4, -1, 5))
    with pytest.raises(RuntimeError, match=r"^transfer bracket at A = e\^\(i pi/3\) is 8 - 17 zeta"):
        transfer.bracket(b)


def test_statesum_guard_catches_narrow_slots(monkeypatch, capsys):
    # the bracket of this closure has coefficients up to 13 in absolute
    # value, which 2-bit slots cannot hold
    text = "4: " + " ".join(["1 -2 3"] * 3)
    monkeypatch.setattr(statesum, "slot_width", lambda growth: 2)
    with pytest.raises(RuntimeError, match="A = 1"):
        jones_of(text)
    # 9 crossings is within the default state-sum limit, so the CLI takes
    # the state sum and must not print a row
    with pytest.raises(RuntimeError, match="A = 1"):
        main(["jones", text])
    assert capsys.readouterr().out == ""
    # this closure decodes to a wrong bracket that is still right at A = 1
    d = braid_closure(BraidWord(6, (3, 2, 5, 5, -4, -2, 3, -1, -5, 2, -1, -1, 2)))
    with pytest.raises(RuntimeError, match=r"^state-sum bracket at A = e\^\(i pi/3\) is -8 \+ 6 zeta"):
        statesum.bracket(d)


def test_markov_moves_preserve_jones():
    rng = random.Random(7)
    for _ in range(25):
        n, letters = random_knot_braid(rng, max_strands=4, max_letters=10)
        b = BraidWord(n, letters)
        v = jones_tl(b)
        assert jones_tl(conjugate(b, rng.choice([1, -1]) * rng.randint(1, n - 1))) == v
        assert jones_tl(markov_stabilize(b, 1)) == v
        assert jones_tl(markov_stabilize(b, -1)) == v


def test_statesum_equals_tl_on_random_braids():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 5)
        letters = tuple(
            rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 14))
        )
        b = BraidWord(n, letters)
        assert jones(braid_closure(b)) == jones_tl(b), (n, letters)


def test_contraction_matches_brute_bracket():
    # unlinks, free loops, and one-letter closures whose arcs join themselves
    cases = [(1, ()), (3, ()), (4, (1, 1)), (2, (1,)), (2, (-1,)), (3, (2,)), (3, (1, -1))]
    rng = random.Random(13)
    # mostly small words, since the oracle walks all 2^c states; a few reach 16
    for size in [rng.randint(0, 12) for _ in range(56)] + [13, 14, 15, 16]:
        n = rng.randint(1, 8)
        letters = tuple(
            rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(size if n > 1 else 0)
        )
        cases.append((n, letters))
    for n, letters in cases:
        d = braid_closure(BraidWord(n, letters))
        assert as_dict(kauffman_bracket(d, limit=16)) == brute_bracket(n, letters), (n, letters)


def test_limits_raise():
    big = torus_braid(2, 30)
    with pytest.raises(LimitExceeded, match="raise"):
        jones(braid_closure(big), limit=24)
    with pytest.raises(LimitExceeded):
        jones_tl(torus_braid(9, 2), limit=8)


def test_mirror_braid_gives_mirror_polynomial():
    spec = TwistedTorusSpec(5, 2, 3, 1)
    b = ttk_braid(spec)
    assert mirror_poly(jones_tl(b)) == jones_tl(mirror(b))


def test_statesum_beyond_eight_strands():
    # 28 crossings each; the transfer route stays cheap on these words
    nine = BraidWord(9, tuple(range(1, 9)) + (3, -4) * 10)
    thirteen = BraidWord(13, (1, -2) * 8 + tuple(range(1, 13)))
    for b in (nine, thirteen):
        d = braid_closure(b)
        assert len(d.crossings) == 28
        assert jones(d, limit=len(d.crossings)) == jones_tl(b, limit=b.strands)
    # unreduced words of both signs on many strands reach new matchings
    # in mid-word, and short words on many strands leave most ids unseen
    rng = random.Random(9)
    words = [parse_braid("12: 1 2 3 4 5 6 7 8 9 10 11"), torus_braid(11, 3)]
    for n in (9, 10, 11, 12):
        size = rng.randint(20, 45)
        words.append(
            BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(size)))
        )
    for b in words:
        d = braid_closure(b)
        assert jones(d, limit=len(d.crossings)) == jones_tl(b, limit=b.strands), b


def test_statesum_matches_tl_on_torus_knots():
    # T(8,9) peaks at Catalan(8) frontier keys; the 1500-strand closure has
    # 1498 free loops, which the state sum takes in as one delta power
    for b in (torus_braid(7, 8), torus_braid(8, 9), parse_braid("1500: 1 1 1")):
        d = braid_closure(b)
        assert jones(d, limit=len(d.crossings)) == jones_tl(b, limit=b.strands)


def _imported_modules(module: str) -> set[str]:
    source = Path(importlib.util.find_spec(module).origin).read_text()
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.rsplit(".", 1)[-1])
            names.update(alias.name for alias in node.names)
    return names


def test_routes_share_no_code():
    # jones imports both routes, so a route importing it would reach the other
    for route, other in (("statesum", "transfer"), ("transfer", "statesum")):
        imported = _imported_modules(f"twistlink.{route}")
        assert not imported & {other, "jones"}, (route, imported)


def test_determinant_rejects_non_integer_value(monkeypatch):
    monkeypatch.setattr(LaurentPoly, "substitute", lambda self, value: Fraction(1, 2))
    with pytest.raises(ValueError, match="not an integer"):
        determinant(LaurentPoly(VAR_T, {1: 1}))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_jones_is_a_knot_invariant_under_markov_noise(seed):
    rng = random.Random(seed)
    n, letters = random_knot_braid(rng, max_strands=4, max_letters=8)
    b = BraidWord(n, letters)
    noisy = markov_stabilize(conjugate(b, rng.randint(1, n - 1)), rng.choice([1, -1]))
    assert jones_tl(noisy) == jones_tl(b)


@st.composite
def noisy_braids(draw):
    """Up to 13 letters on 1-5 strands, then maybe conjugated and stabilized.

    At most 16 letters and 6 strands in all.  The word length is drawn
    uniformly, so that few examples pay the oracle's 2^16 states.
    """
    n = draw(st.integers(min_value=1, max_value=5))
    letter = st.integers(min_value=1, max_value=max(n - 1, 1)).flatmap(
        lambda j: st.sampled_from((j, -j))
    )
    size = draw(st.integers(min_value=0, max_value=13)) if n > 1 else 0
    b = BraidWord(n, tuple(draw(st.lists(letter, min_size=size, max_size=size))))
    if n > 1 and draw(st.booleans()):
        b = conjugate(b, draw(letter))
    if draw(st.booleans()):
        b = markov_stabilize(b, draw(st.sampled_from((1, -1))))
    return b


# a fixed example set: one 16-letter word costs the oracle seconds
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(noisy_braids())
def test_three_witnesses_agree_on_noisy_braids(b):
    expected = brute_bracket(b.strands, b.letters)
    assert as_dict(transfer.bracket(b)) == expected
    assert as_dict(kauffman_bracket(braid_closure(b), limit=16)) == expected
