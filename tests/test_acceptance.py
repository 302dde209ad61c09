"""Acceptance gate: one test per shipped criterion, each timed against its
stated budget and reported as a single PASS/FAIL line in the terminal
summary.  Everything here is exact; there are no tolerances."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import pytest

import conftest
from oracles import det_bareiss, grid_dt, torus_jones
from twistlink.braid import (
    BraidWord,
    TwistedTorusSpec,
    conjugate,
    free_reduce_cyclic,
    markov_stabilize,
    mirror,
    torus_braid,
    ttk_braid,
)
from twistlink.diagram import braid_closure, dt_code, parse_dt, render_dt
from twistlink.jones import determinant, jones, jones_tl, mirror_poly
from twistlink.surgery import (
    INF,
    apply_move,
    blow_down,
    blow_down_axis,
    blow_up,
    cfrac_eval,
    cfrac_expand,
    h1,
    kirby_reduce,
    parse_presentation,
    parse_script,
    presentation,
    rational_to_chain,
    slam_dunk,
)


@contextmanager
def criterion(number, budget_s, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE_LINES.append(f"criterion {number}: FAIL  {label}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_s:
        conftest.ACCEPTANCE_LINES.append(
            f"criterion {number}: FAIL  {label} (runtime {elapsed:.3f}s over {budget_s}s budget)"
        )
        pytest.fail(f"criterion {number} exceeded budget: {elapsed:.3f}s > {budget_s}s")
    conftest.ACCEPTANCE_LINES.append(
        f"criterion {number}: PASS  {label} ({elapsed:.3f}s of {budget_s}s budget)"
    )


def jones_of_braid(b):
    return jones(braid_closure(b))


def test_criterion_1_continued_fraction():
    cfrac_expand(Fraction(3, 5))  # warm any lazy imports before the clock starts
    with criterion(1, 0.001, "cfrac 2/7 = [1,2,2,3], inverted exactly"):
        cf = cfrac_expand(Fraction(2, 7))
        assert cf.terms == (1, 2, 2, 3)
        assert cfrac_eval(cf) == Fraction(2, 7)


def test_criterion_2_chain_pipeline_shape():
    with criterion(2, 0.01, "chain [1,2,2,3] <-> 2/7 with H1 constant"):
        chain = presentation(
            [("x", 1, True), ("x.2", 2, True), ("x.3", 2, True), ("x.4", 3, True)],
            {("x", "x.2"): 1, ("x.2", "x.3"): 1, ("x.3", "x.4"): 1},
            [("x.2", "x"), ("x.3", "x.2"), ("x.4", "x.3")],
        )
        p = chain
        for tail, target in (("x.4", "x.3"), ("x.3", "x.2"), ("x.2", "x")):
            p = slam_dunk(p, tail, target)
        assert p.component("x").coefficient == Fraction(2, 7)
        regrown = rational_to_chain(p, "x")
        assert regrown == chain

        start = presentation(
            [("main", 4, True), ("x", "2/7", True)],
            {("main", "x"): 1},
            [("x", "main")],
        )
        script = [
            ("chain", "x"),
            ("blowdown", "x"),
            ("blowdown", "x.2"),
            ("blowdown", "x.3"),
            ("slamdunk", "x.4", "main"),
        ]
        final, trace = kirby_reduce(start, script)
        assert final.component("main").coefficient == Fraction(1, 2)
        assert all(s.h1 == trace.initial_h1 for s in trace.steps)


def weighted_matrix(p):
    comps = [c for c in p.components if c.coefficient is not INF]
    idx = [p.index(c.name) for c in comps]
    rows = []
    for row_pos, i in enumerate(idx):
        coeff = p.components[i].coefficient
        lk = dict(p.linking[i])
        row = [coeff.denominator * lk.get(j, 0) for j in idx]
        row[row_pos] = coeff.numerator
        rows.append(row)
    return rows


def random_integer_presentation(rng, k):
    comps = [(f"c{i}", rng.randint(-9, 9), True) for i in range(k)]
    linking = {}
    for i in range(k):
        for j in range(i + 1, k):
            linking[(f"c{i}", f"c{j}")] = rng.randint(-9, 9)
    return presentation(comps, linking)


def test_criterion_3_blow_down_rules_and_determinant():
    with criterion(3, 5.0, "blow-down framing rules and det(M) = eps*det(M')"):
        for eps in (1, -1):
            single = presentation([("k", 7, True), ("u", eps, True)], {("k", "u"): 1})
            assert blow_down(single, "u").component("k").coefficient == 7 - eps
            double = presentation([("k", 7, True), ("u", eps, True)], {("k", "u"): 2})
            assert blow_down(double, "u").component("k").coefficient == 7 - 4 * eps

        rng = random.Random(30)
        for _ in range(500):
            k = rng.randint(2, 6)
            p = random_integer_presentation(rng, k)
            victim = f"c{rng.randrange(k)}"
            eps = rng.choice([1, -1])
            comps = [
                (c.name, eps if c.name == victim else c.coefficient, True)
                for c in p.components
            ]
            linking = {
                (p.components[i].name, p.components[j].name): v
                for i, row in enumerate(p.linking)
                for j, v in row
                if i < j
            }
            p = presentation(comps, linking)
            before = det_bareiss(weighted_matrix(p))
            after = det_bareiss(weighted_matrix(blow_down(p, victim)))
            assert before == eps * after


def random_move(rng, p):
    kinds = ["blowup"]
    ints = [
        c.name
        for c in p.components
        if c.coefficient is not INF and c.coefficient.denominator == 1
    ]
    rats = [
        c.name
        for c in p.components
        if c.coefficient is not INF and c.coefficient.denominator != 1
    ]
    ones = [
        c.name
        for c in p.components
        if c.unknotted
        and c.coefficient is not INF
        and c.coefficient.denominator == 1
        and abs(c.coefficient) == 1
    ]
    if ones:
        kinds.append("blowdown")
    if len(ints) >= 2:
        kinds.append("slide")
    if rats:
        kinds.append("chain")
    if p.meridian_edges:
        kinds.append("slamdunk")
    kind = rng.choice(kinds)
    if kind == "blowup":
        v = [
            rng.randint(-2, 2)
            if (c.coefficient is not INF and c.coefficient.denominator == 1)
            else 0
            for c in p.components
        ]
        return ("blowup", rng.choice([1, -1]), tuple(v))
    if kind == "blowdown":
        return ("blowdown", rng.choice(ones))
    if kind == "slide":
        i, j = rng.sample(ints, 2)
        return ("slide", i, j, rng.choice([1, -1]))
    if kind == "chain":
        return ("chain", rng.choice(rats))
    edge = rng.choice(sorted(p.meridian_edges))
    return ("slamdunk", edge[0], edge[1])


def random_mixed_presentation(rng):
    k = rng.randint(1, 4)
    comps = []
    for i in range(k):
        roll = rng.random()
        if roll < 0.15:
            coeff = INF
        elif roll < 0.45:
            coeff = Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 5))
        else:
            coeff = Fraction(rng.randint(-5, 5))
        comps.append((f"c{i}", coeff, True))
    linking = {}
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < 0.5:
                linking[(f"c{i}", f"c{j}")] = rng.randint(-2, 2)
    return presentation(comps, linking)


def test_criterion_4_h1_invariance():
    with criterion(4, 30.0, "H1 constant over 500 random legal move sequences"):
        rng = random.Random(41)
        applied = 0
        for _ in range(500):
            p = random_mixed_presentation(rng)
            base = h1(p)
            for _ in range(rng.randint(1, 10)):
                move = random_move(rng, p)
                try:
                    p = apply_move(p, move)
                except ValueError:
                    continue  # move was illegal for this presentation; skip it
                applied += 1
                assert h1(p) == base, move
        assert applied >= 1500  # the generator must mostly produce legal moves


def coprime_pairs(limit):
    pairs = []
    for p in range(2, limit):
        for q in range(2, limit):
            if p != q and p + q <= limit and gcd(p, q) == 1:
                pairs.append((p, q))
    return pairs


def test_criterion_5_jones_correctness():
    with criterion(
        5, 300.0, "torus formula, dual routes <= 16 crossings, Markov invariance x200"
    ):
        for p, q in coprime_pairs(12):
            b = torus_braid(p, q)
            v = jones_tl(b)
            assert dict(v.terms()) == torus_jones(p, q), (p, q)
            if len(free_reduce_cyclic(b.letters)) <= 16:
                assert jones_of_braid(b) == v, (p, q)

        rng = random.Random(50)
        for _ in range(200):
            n = rng.randint(2, 8)
            letters = tuple(
                rng.choice([1, -1]) * rng.randint(1, n - 1)
                for _ in range(rng.randint(1, 20))
            )
            b = BraidWord(n, letters)
            v = jones_tl(b)
            g = rng.choice([1, -1]) * rng.randint(1, n - 1)
            assert jones_tl(conjugate(b, g)) == v
            assert jones_tl(markov_stabilize(b, rng.choice([1, -1]))) == v
            if len(free_reduce_cyclic(letters)) <= 16:
                assert jones_of_braid(b) == v


def test_criterion_6_twisted_torus_identities():
    with criterion(6, 120.0, "full-twist identities and dual-route T(8,3,4,-2)"):
        for p, q, s in ((2, 3, 1), (2, 3, 2), (3, 2, 1), (3, 4, 1)):
            twisted = ttk_braid(TwistedTorusSpec(p, q, p, s))
            plain = torus_braid(p, q + p * s)
            assert jones_tl(twisted) == jones_tl(plain), (p, q, s)

        t8342 = ttk_braid(TwistedTorusSpec(8, 3, 4, -2))
        v_sum = jones(braid_closure(t8342), limit=64)
        v_tl = jones_tl(t8342)
        assert v_sum == v_tl
        assert dict(v_sum.terms()) == {
            -9: -1, -8: 1, -7: -2, -6: 3, -5: -2, -4: 2, -3: -1, -2: 1,
        }
        assert jones_tl(mirror(t8342)) == mirror_poly(v_sum)


def test_criterion_7_determinant_cross_check():
    with criterion(7, 60.0, "|V(-1)| = q for T(2,q), odd q <= 15"):
        for q in range(3, 16, 2):
            v = jones_of_braid(torus_braid(2, q))
            assert determinant(v) == q, q


def test_criterion_8_dt_round_trip():
    with criterion(8, 60.0, "DT codes: oracle anchors and 100 random round trips"):
        assert dt_code(braid_closure(BraidWord(2, (1, 1, 1)))).pairs == (4, 6, 2)
        assert dt_code(braid_closure(BraidWord(3, (1, -2, 1, -2)))).pairs == (4, 6, 8, 2)
        assert grid_dt(2, (1, 1, 1)) == (4, 6, 2)
        assert grid_dt(3, (1, -2, 1, -2)) == (4, 6, 8, 2)

        rng = random.Random(80)
        done = 0
        while done < 100:
            n = rng.randint(2, 6)
            letters = tuple(
                rng.choice([1, -1]) * rng.randint(1, n - 1)
                for _ in range(rng.randint(n, 12))
            )
            d = braid_closure(BraidWord(n, letters))
            if len(d.components) != 1 or not d.crossings:
                continue
            code = dt_code(d)
            assert parse_dt(render_dt(code)) == code
            assert code.pairs == grid_dt(n, free_reduce_cyclic(letters))
            done += 1


def test_criterion_9_surgery_to_braid_bridge():
    with criterion(9, 60.0, "blow_down_axis words match ttk words, with Jones agreement"):
        t8342_direct = ttk_braid(TwistedTorusSpec(8, 3, 4, -2))
        t8342_surgery = blow_down_axis(torus_braid(8, 3), 1, 4, Fraction(1, 2))
        assert t8342_surgery == t8342_direct
        assert jones_tl(t8342_surgery) == jones(braid_closure(t8342_direct), limit=64)

        t5231_direct = ttk_braid(TwistedTorusSpec(5, 2, 3, 1))
        t5231_surgery = blow_down_axis(torus_braid(5, 2), 1, 3, Fraction(-1))
        assert t5231_surgery == t5231_direct
        assert jones_tl(t5231_surgery) == jones_of_braid(t5231_direct)
