import ast
import importlib.util
import random
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
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
from twistlink.diagram import PlanarDiagram, braid_closure, writhe
from twistlink.jones import (
    LimitExceeded,
    RunTables,
    determinant,
    format_jones_row,
    jones,
    jones_tl,
    kauffman_bracket,
    mirror_poly,
)
from twistlink.poly import VAR_A, VAR_T, LaurentPoly, unpack

from oracles import (
    brute_bracket,
    coloring_determinant,
    gluing_order,
    jones_dict_in_t,
    jones_row,
    poly_mul,
    poly_pow,
    random_knot_braid,
    torus_jones,
)


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


def test_jones_row_rejects_a_values_it_cannot_show():
    # a half-integer row steps by whole powers of t, A^-4: odd exponents,
    # or even ones that differ by 2 mod 4, would drop terms
    for bad in ({1: 1, 3: 1}, {2: 1, 4: 1}):
        with pytest.raises(ValueError, match="^an A-tagged row needs even exponents"):
            format_jones_row(None, LaurentPoly(VAR_A, bad))
    assert format_jones_row(None, LaurentPoly(VAR_A, {0: 1, 4: 1})) == "span=(-2/2,0/2) coeffs=[1,1]"
    with pytest.raises(ValueError, match="^zero polynomial has no span$"):
        format_jones_row(None, LaurentPoly(VAR_A, {}))


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
    monkeypatch.setattr(statesum, "slot_width", lambda crossings, components: 2)
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
    # 1498 free loops, which the state sum takes in as one delta power; on
    # thousands of strands the transfer closure decodes thousands of slots
    texts = ("1500: 1 1 1", "3000: 1 1 1", "1500: 1 1 1 2 -1")
    for b in (torus_braid(7, 8), torus_braid(8, 9), *map(parse_braid, texts)):
        d = braid_closure(b)
        assert jones(d, limit=len(d.crossings)) == jones_tl(b, limit=b.strands)


def test_statesum_delta_power_of_split_hopf_links():
    # n split Hopf links and f free strands: the state sum folds in
    # delta^(n + f - 1) at once; the transfer route checks ten pieces, and
    # <Hopf>^n delta^(n-1) checks 400
    ten = parse_braid("30: " + " ".join(f"{i} {i}" for i in range(1, 20, 2)))
    assert jones(braid_closure(ten), limit=20) == jones_tl(ten, limit=30)
    many = braid_closure(parse_braid("800: " + " ".join(f"{i} {i}" for i in range(1, 800, 2))))
    hopf = as_dict(kauffman_bracket(braid_closure(parse_braid("2: 1 1"))))
    expected = poly_mul(poly_pow(hopf, 400), poly_pow({2: -1, -2: -1}, 399))
    assert as_dict(kauffman_bracket(many, limit=800)) == expected


def _split_hopf(k):
    return parse_braid(f"{2 * k}: " + " ".join(f"{i} {i}" for i in range(1, 2 * k, 2)))


def _timed(budget_s, call):
    """call(), failing if it takes more than budget_s seconds."""
    start = time.perf_counter()
    value = call()
    elapsed = time.perf_counter() - start
    if elapsed > budget_s:
        pytest.fail(f"{elapsed:.3f}s over the {budget_s}s budget")
    return value


def test_transfer_closes_split_hopf_links_piece_by_piece():
    # each piece's strands close once its letters are read, so the vector
    # never holds more than two matchings however many pieces there are
    for k in range(1, 7):
        b = _split_hopf(k)
        assert jones_tl(b, limit=2 * k) == jones(braid_closure(b), limit=2 * k), k
    hopf = {-2: -1, -10: -1}  # -t^(1/2) - t^(5/2), with t = A^-4
    assert as_dict(jones_of("2: 1 1")) == hopf
    unlink = {2: -1, -2: -1}  # -t^(1/2) - t^(-1/2), V of the two-component unlink
    expected = poly_mul(poly_pow(unlink, 399), poly_pow(hopf, 400))
    assert as_dict(_timed(60, lambda: jones_tl(_split_hopf(400), limit=800))) == expected


def test_transfer_word_passes_are_linear():
    # 20,000 letters: cancelling and the closing schedule touch each letter
    # a bounded number of times, where a rescan per letter would take minutes
    b = parse_braid("4: " + " ".join(["1 3"] * 10000))
    word, lefts, rights = _timed(5, lambda: transfer._rotated(transfer._cancel(b.letters, 4), 4))
    assert word == list(b.letters)  # both rotations cost the same
    assert (lefts, rights) == ([19998, 19998, 19999], [19999] * 3)
    # a word followed by its inverse cancels from the middle out, and each
    # inverse pair of "1 3 -1 -3" across the letter between them
    unlink = jones_tl(parse_braid("4:"))
    for text in ("1 3 " * 5000 + "-3 -1 " * 5000, "1 3 -1 -3 " * 5000):
        assert transfer._cancel(parse_braid("4: " + text).letters, 4) == []
        assert _timed(10, lambda: jones_tl(parse_braid("4: " + text))) == unlink


def test_transfer_sizes_slots_from_the_cancelled_word(monkeypatch, capsys):
    # 34 letters, none next to its inverse, so the CLI sends the word to the
    # transfer route unreduced; cancelling across the commuting letter
    # leaves "2 2", and the slots are sized for those 2 letters
    text = "4: " + "1 3 -1 -3 " * 8 + "2 2"
    b = parse_braid(text)
    assert len(b.letters) == 34 and transfer._cancel(b.letters, 4) == [2, 2]
    widths = []
    slot_width = transfer.slot_width
    monkeypatch.setattr(
        transfer, "slot_width", lambda c, n: widths.append(slot_width(c, n)) or widths[-1]
    )
    assert main(["jones", f"r={text}"]) == 0
    assert capsys.readouterr().out == "r span=(-1/2,7/2) coeffs=[-1,-2,-2,-2,-1]\n"
    assert widths == [7] and slot_width(34, 4) == 39


def test_statesum_on_wide_short_words():
    # many strands, few periods: word order's frontier is as wide as the
    # word, the diagram's much narrower
    for p, q in ((11, 4), (13, 2)):
        d = braid_closure(torus_braid(p, q))
        assert as_dict(jones(d, limit=len(d.crossings))) == torus_jones(p, q), (p, q)
    # T(12,3) is a link of three components, past the torus formula; T(11,4)
    # is checked against the transfer route too
    words = [torus_braid(12, 3), torus_braid(11, 4), ttk_braid(TwistedTorusSpec(9, 4, 3, 5))]
    words.append(ttk_braid(TwistedTorusSpec(8, 3, 4, -2)))
    # the transfer route's basis grows as Catalan(n), so the widest
    # random words get the fewest periods
    rng = random.Random(41)
    for n, periods in ((8, 4), (9, 3), (10, 3), (11, 2), (12, 2), (13, 2), (14, 2)):
        signs = [rng.choice((1, -1)) for _ in range(periods * (n - 1))]
        letters = tuple(s * j for s, j in zip(signs, list(range(1, n)) * periods))
        words.append(BraidWord(n, letters))
    for b in words:
        d = braid_closure(b)
        assert jones(d, limit=len(d.crossings)) == jones_tl(b, limit=b.strands), b
    # glued in word order, T(12,3) and T(11,4) intern 46,879 and 44,547
    # keys; a narrow order needs a few dozen
    for b in (torus_braid(12, 3), torus_braid(11, 4)):
        tables = statesum.Tables()
        statesum.bracket(braid_closure(b), tables)
        assert len(tables.keys) < 100, (b, len(tables.keys))


def test_determinant_equals_coloring_minor():
    # a third witness at t = -1 that shares no skein code with either
    # route, for knots too big for the brute oracle
    braids = [torus_braid(11, 4)]
    braids += [ttk_braid(TwistedTorusSpec(*spec)) for spec in ((9, 4, 3, 5), (8, 3, 4, -2))]
    for b, expected in zip(braids, (11, 11, 13)):
        assert coloring_determinant(b.strands, b.letters) == expected, b
        d = braid_closure(b)
        assert determinant(jones(d, limit=len(d.crossings))) == expected, b


def _shape_counts(tables):
    moves = sum(len(entry[0]) for entry in tables.shapes.values())
    return len(tables.shapes), len(tables.keys), moves


def test_statesum_mirror_adds_no_shape_key_or_move():
    # a shape's moves hold both smoothings, and the sign only picks which
    # is A, so the mirror of a diagram meets the tables it left
    braids = [parse_braid("5: 1 -2 3 -4 2 1 -3 4 -1 2 2 -3"), torus_braid(11, 4)]
    braids += _random_braids(random.Random(43), 10, 3, 9, max_letters=20)
    for b in braids:
        tables = statesum.Tables()
        v = statesum.bracket(braid_closure(b), tables)
        counts = _shape_counts(tables)
        w = statesum.bracket(braid_closure(mirror(b)), tables)
        assert _shape_counts(tables) == counts, b
        assert w == mirror_poly(v)


def _random_braids(rng, count, min_strands, max_strands, max_letters=14):
    out = []
    for _ in range(count):
        n = rng.randint(min_strands, max_strands)
        size = rng.randint(0, max_letters)
        letters = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(size))
        out.append(BraidWord(n, letters))
    return out


def test_statesum_tables_kept_across_calls_do_not_change_brackets():
    rng = random.Random(21)
    braids = _random_braids(rng, 30, 2, 6) + [torus_braid(4, 5), torus_braid(5, 6)]
    others = _random_braids(rng, 30, 3, 7)
    others += [torus_braid(6, 7), ttk_braid(TwistedTorusSpec(5, 2, 3, 1))]
    expected = [transfer.bracket(b) for b in braids]
    diagrams = [braid_closure(b) for b in braids]
    tables = statesum.Tables()
    assert [statesum.bracket(d, tables) for d in diagrams] == expected
    assert [statesum.bracket(d, tables) for d in reversed(diagrams)] == expected[::-1]
    interleaved = []
    tables = statesum.Tables()
    for d, b in zip(diagrams, others):
        interleaved.append(statesum.bracket(braid_closure(b), tables))
        interleaved.append(statesum.bracket(d, tables))
    assert interleaved[1::2] == expected
    assert interleaved[0::2] == [transfer.bracket(b) for b in others]


def test_transfer_tables_shared_or_fresh_give_equal_brackets():
    rng = random.Random(31)
    braids = _random_braids(rng, 40, 2, 7, max_letters=30)
    braids += [torus_braid(4, 5), torus_braid(6, 7), ttk_braid(TwistedTorusSpec(8, 3, 4, -2))]
    # 10-12 strands: words that reach many matchings, then sparse words
    # whose cancelling letters leave most entries zero, so that their idle
    # ids wait against a basis other words reached first
    wide = [parse_braid("12: 1 2 3 4 5 6 7 8 9 10 11"), torus_braid(10, 3)]
    wide += _random_braids(rng, 6, 10, 12, max_letters=30)
    for n in (10, 11, 12):
        for _ in range(3):
            j, k = rng.sample(range(1, n), 2)
            wide.append(BraidWord(n, (j, -j, k, -k) * 3 + (j, k, -j, -k, j)))
    braids += wide
    # words that close strands at both ends as they go
    braids += [_closing_word(random.Random(37 + k).randint) for k in range(40)]
    rng.shuffle(braids)  # strand counts interleaved
    fresh = [transfer.bracket(b) for b in braids]
    tables = transfer.Tables()
    assert [transfer.bracket(b, tables) for b in braids] == fresh
    assert [transfer.bracket(b, tables) for b in reversed(braids)] == fresh[::-1]
    tables = transfer.Tables()
    assert [transfer.bracket(b, tables) for b in reversed(braids)] == fresh[::-1]
    # on each strand count, the longest words first, so that the sparse
    # words meet a warm basis
    tables = transfer.Tables()
    order = sorted(range(len(braids)), key=lambda k: (braids[k].strands, -len(braids[k].letters)))
    assert [transfer.bracket(braids[k], tables) for k in order] == [fresh[k] for k in order]
    tables = transfer.Tables()
    rng.shuffle(order)
    assert [transfer.bracket(braids[k], tables) for k in order] == [fresh[k] for k in order]
    # both routes through one RunTables
    run = RunTables()
    for b in braids[:20]:
        d = braid_closure(b)
        assert jones_tl(b, limit=b.strands, tables=run) == jones(d, limit=len(d.crossings), tables=run)


def test_transfer_second_call_on_shared_tables_computes_nothing(monkeypatch):
    # every call, the first on a strand count too, leaves the e_j images and
    # closures it computed in the tables, so a word run again looks all of
    # them up
    calls = []

    def counted(inner):
        def call(*args):
            calls.append(args)
            return inner(*args)

        return call

    monkeypatch.setattr(transfer, "apply_e", counted(transfer.apply_e))
    monkeypatch.setattr(transfer, "close_strand", counted(transfer.close_strand))
    for b in (torus_braid(4, 5), parse_braid("6: 1 2 3 4 5 -3 2 1 4 -5 3 2 -1 4 3 -2 5 1")):
        tables = transfer.Tables()
        first = transfer.bracket(b, tables)
        assert calls
        calls.clear()
        assert transfer.bracket(b, tables) == first
        assert calls == [], b


def test_apply_e_returns_its_input_exactly_when_it_closes_a_loop():
    # bracket reads a result that is its input as a loop on the same id, so
    # the identity must mean a closed loop, and every other result must be
    # a new matching on which e_j then closes one; the search reaches every
    # crossingless matching of 2n points, Catalan(n) of them
    for n, catalan in zip(range(1, 6), (1, 2, 5, 14, 42)):
        start = transfer.identity_matching(n)
        seen, todo = {start}, [start]
        while todo:
            m = todo.pop()
            for j in range(1, n):
                p, q = 2 * n - j - 1, 2 * n - j
                out = transfer.apply_e(m, j, n)
                assert all(out[out[x]] == x != out[x] for x in range(2 * n))
                if m[p] == q:
                    assert out is m
                else:
                    assert out != m and out[p] == q
                    assert transfer.apply_e(out, j, n) is out
                if out not in seen:
                    seen.add(out)
                    todo.append(out)
        assert len(seen) == catalan, n


def test_run_tables_build_the_transfer_tables_once():
    run = RunTables()
    assert "transfer" not in vars(run)  # not built until it is read
    first = run.transfer
    assert type(first) is transfer.Tables and run.transfer is first
    b = ttk_braid(TwistedTorusSpec(4, 7, 2, 1))
    v = jones_tl(b, tables=run)
    assert run.transfer is first and first.bases
    # with no tables, each call starts from fresh ones
    assert jones_tl(b) == v == jones(braid_closure(b), limit=99)


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


@st.composite
def shuffled_diagrams(draw):
    """A closure of up to 20 letters on 1-10 strands, its crossings permuted."""
    n = draw(st.integers(min_value=1, max_value=10))
    letter = st.integers(min_value=1, max_value=max(n - 1, 1)).flatmap(
        lambda j: st.sampled_from((j, -j))
    )
    size = draw(st.integers(min_value=0, max_value=20)) if n > 1 else 0
    b = BraidWord(n, tuple(draw(st.lists(letter, min_size=size, max_size=size))))
    d = braid_closure(b)
    crossings = tuple(draw(st.permutations(d.crossings)))
    return b, PlanarDiagram(crossings, d.free_loops, d.components)


# each order is glued as it is or in the state sum's own order, whichever
# has the narrower frontier; either way the bracket is that of the link
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(shuffled_diagrams())
def test_gluing_order_does_not_change_the_bracket(case):
    b, shuffled = case
    assert statesum.bracket(shuffled) == transfer.bracket(b)


# both orders come up: about two thirds of these permuted closures take
# the queue's, and so do wide, short ones such as T(12,3) and T(11,4)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(shuffled_diagrams())
@example((torus_braid(12, 3), braid_closure(torus_braid(12, 3))))
@example((torus_braid(11, 4), braid_closure(torus_braid(11, 4))))
def test_gluing_order_matches_the_reference(case):
    _, d = case
    arcs = [c[1:] for c in d.crossings]
    assert statesum._gluing_order(arcs) == gluing_order(arcs)


def _closing_word(pick):
    """A word that leaves end strands idle, from ``pick(lo, hi)``, an integer in [lo, hi].

    The core uses sigma_first..sigma_last of n strands: random letters, or
    a torus part with a twist region on fewer strands.  The word is then
    maybe stabilized, which adds a single sigma_n^(+-1), flipped (i ->
    n - i), mirrored, and rotated.  At most 13 letters on 2-8 strands.
    """
    n = pick(2, 7)
    first = pick(1, n - 1)
    last = pick(first, n - 1)
    core = tuple(range(first, last + 1))
    if pick(0, 1):
        sign = 2 * pick(0, 1) - 1
        r = pick(1, min(3, len(core)))  # twists on r strands, fewer than the core's
        letters = core * pick(1, 6 // len(core)) + tuple(sign * g for g in core[: r - 1]) * r
    else:
        letters = tuple((2 * pick(0, 1) - 1) * pick(first, last) for _ in range(pick(0, 12)))
    b = BraidWord(n, letters)
    if pick(0, 1):
        b = markov_stabilize(b, 2 * pick(0, 1) - 1)
    if pick(0, 1):
        b = BraidWord(b.strands, tuple((b.strands - abs(g)) * (1 if g > 0 else -1) for g in b.letters))
    if pick(0, 1):
        b = mirror(b)
    start = pick(0, max(len(b.letters) - 1, 0))
    return BraidWord(b.strands, b.letters[start:] + b.letters[:start])


@st.composite
def closing_braids(draw):
    return _closing_word(lambda lo, hi: draw(st.integers(min_value=lo, max_value=hi)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(closing_braids())
def test_transfer_closing_strands_matches_both_witnesses(b):
    expected = brute_bracket(b.strands, b.letters)
    assert as_dict(transfer.bracket(b)) == expected
    assert as_dict(statesum.bracket(braid_closure(b))) == expected


@st.composite
def row_braids(draw):
    """Up to 12 letters on 1-7 strands, from a random set of generators, maybe mirrored.

    Leaving generators out splits the word and leaves strands idle (free
    loops), and the component count falls as it may, so even counts
    (half-integer spans) come up as well as odd ones.
    """
    n = draw(st.integers(min_value=1, max_value=7))
    letters = ()
    if n > 1:
        gens = draw(st.lists(st.integers(min_value=1, max_value=n - 1), min_size=1, unique=True))
        letter = st.sampled_from(gens).flatmap(lambda j: st.sampled_from((j, -j)))
        letters = tuple(draw(st.lists(letter, max_size=12)))
    b = BraidWord(n, letters)
    return mirror(b) if draw(st.booleans()) else b


# rows of both routes are byte for byte those of the reference format
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(row_braids(), st.sampled_from((None, "k")))
@example(BraidWord(2, (1, 1)), "hopf")  # two components: half-integer span
@example(BraidWord(4, (1, 1, 3, 3)), None)  # two split Hopf links
@example(BraidWord(5, (-2, -2)), "loops")  # three idle strands
def test_rows_match_the_reference_format(b, name):
    d = braid_closure(b)
    row = jones_row(name, kauffman_bracket(d), writhe(d))
    assert format_jones_row(name, jones(d)) == row
    assert jones_row(name, transfer.bracket(b), b.writhe()) == row
    assert format_jones_row(name, jones_tl(b)) == row


@st.composite
def permuted_closures(draw):
    """The closure of a ``row_braids`` word, maybe stabilized (a nugatory crossing), permuted."""
    b = draw(row_braids())
    if draw(st.booleans()):
        b = markov_stabilize(b, draw(st.sampled_from((1, -1))))
    d = braid_closure(b)
    return PlanarDiagram(tuple(draw(st.permutations(d.crossings))), d.free_loops, d.components)


# the state sum's slots hold 2^(c+mu-1), the bound on the coefficient sum
# of the pieces' product before the delta power, in any gluing order;
# decoded here from slots far wider than that
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(permuted_closures())
@example(braid_closure(BraidWord(4, (1, 1, 3, 3))))  # two split Hopf links
@example(braid_closure(BraidWord(5, (-2, -2))))  # three idle strands
@example(braid_closure(BraidWord(3, (1, 1, 2))))  # a nugatory crossing
@example(braid_closure(BraidWord(2, (1,) * 7)))  # T(2,7): a sum of 7, one per spanning tree
def test_statesum_product_before_the_delta_power_fits_the_slots(d):
    c, mu = len(d.crossings), len(d.components)
    assert statesum.slot_width(c, mu) == c + mu + 1
    with mock.patch.object(statesum, "slot_width", lambda crossings, components: 4 * c + 8):
        packed, low, width, _ = statesum._contract(d, statesum.Tables())
    assert sum(map(abs, unpack(packed, low, width).values())) <= 2 ** (c + mu - 1)
