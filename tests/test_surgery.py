import inspect
import random
import re
import typing
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twistlink import surgery
from twistlink.surgery import (
    INF,
    Component,
    ContinuedFraction,
    Homology,
    SurgeryPresentation,
    _rebuild,
    _smith_diagonal,
    apply_move,
    blow_down,
    blow_up,
    cfrac_eval,
    cfrac_expand,
    format_slope,
    h1,
    handle_slide,
    is_integral,
    kirby_reduce,
    parse_presentation,
    parse_script,
    parse_slope,
    presentation,
    rational_to_chain,
    render_presentation,
    slam_dunk,
)

import oracles
from oracles import det_bareiss, invariant_factors

nonzero_fractions = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=7
).filter(lambda x: x != 0)


def chain_presentation(terms, base="x"):
    comps = [(base, terms[0], True)]
    names = [base]
    for i, a in enumerate(terms[1:], start=2):
        names.append(f"{base}.{i}")
        comps.append((names[-1], a, True))
    linking = {(names[i], names[i + 1]): 1 for i in range(len(names) - 1)}
    meridians = [(names[i + 1], names[i]) for i in range(len(names) - 1)]
    return presentation(comps, linking, meridians)


def test_type_hints_resolve():
    # every annotation of the module names what the module binds, so
    # type checkers and get_type_hints see Slope as the union it is
    functions = []
    for obj in vars(surgery).values():
        if getattr(obj, "__module__", None) != surgery.__name__:
            continue
        if isinstance(obj, type):
            typing.get_type_hints(obj)
            functions += [getattr(f, "__func__", f) for f in vars(obj).values()]
        else:
            functions.append(obj)
    functions = [f for f in functions if inspect.isfunction(f)]
    assert {surgery.presentation, surgery.cfrac_expand, surgery.blow_down_axis} <= set(functions)
    for f in functions:
        typing.get_type_hints(f)
    slope = typing.Union[Fraction, surgery._Infinity]
    assert surgery.Slope == slope
    assert typing.get_type_hints(Component)["coefficient"] == slope
    assert typing.get_type_hints(cfrac_expand)["x"] == slope


# -- validation -------------------------------------------------------------


def test_presentation_validation():
    with pytest.raises(ValueError, match="distinct"):
        presentation([("a", 1, True), ("a", 2, True)])
    with pytest.raises(ValueError, match="symmetric"):
        SurgeryPresentation(
            (Component("a", Fraction(1), True), Component("b", Fraction(1), True)),
            (((1, 1),), ((0, 2),)),
            frozenset(),
        )
    with pytest.raises(ValueError, match="diagonal"):
        SurgeryPresentation((Component("a", Fraction(1), True),), (((0, 1),),), frozenset())
    # every row's pairs are checked before any row's symmetry, rows in order
    three = tuple(Component(n, Fraction(1), True) for n in "abc")
    with pytest.raises(ValueError, match="diagonal"):
        SurgeryPresentation(three, (((1, 1),), ((0, 2),), ((2, 5),)), frozenset())
    with pytest.raises(ValueError, match="ascend"):
        SurgeryPresentation(three, (((2, 1),), ((2, 5),), ((1, 1), (0, 2))), frozenset())
    # list rows and pairs are accepted and stored as the canonical tuples
    p = SurgeryPresentation(three, [[[1, 1], [2, -2]], [(0, 1), (2, 3)], [(0, -2), (1, 3)]], frozenset())
    assert p.lk("a", "c") == -2 and p.lk("c", "b") == 3 and p.lk("a", "a") == 0
    assert p.linking == (((1, 1), (2, -2)), ((0, 1), (2, 3)), ((0, -2), (1, 3)))
    assert hash(p) == hash(SurgeryPresentation(*p))


@pytest.mark.parametrize(
    "linking, message",
    [
        ((((2, 1), (1, 1)), ((0, 1),), ((0, 1),)), "linking columns must ascend"),
        ((((1, 1), (1, 1)), ((0, 1),), ()), "linking columns must ascend"),
        ((((1, 0),), ((0, 0),), ()), "linking rows must store no zero"),
        ((((1, 1),), ((0, -1),), ()), "linking matrix must be symmetric"),
        ((((1, 1),), (), ()), "linking matrix must be symmetric"),
        ((((1, 1),), ((0, 1),)), "linking matrix size must match component count"),
        ((((3, 1),), (), ()), "linking matrix size must match component count"),
        ((((-1, 1),), (), ()), "linking matrix size must match component count"),
        ((((0, 2),), (), ()), "linking diagonal must be zero"),
    ],
)
def test_constructor_rejects_rows_that_are_not_canonical(linking, message):
    three = tuple(Component(n, Fraction(1), True) for n in "abc")
    with pytest.raises(ValueError, match=f"^{message}$"):
        SurgeryPresentation(three, linking, frozenset())


def test_meridian_edge_validation():
    with pytest.raises(ValueError, match="exactly once"):
        presentation([("a", 1, True), ("b", 1, True)], {}, [("a", "b")])
    with pytest.raises(ValueError, match="unknotted"):
        presentation(
            [("a", 1, False), ("b", 1, True)], {("a", "b"): 1}, [("a", "b")]
        )
    with pytest.raises(ValueError, match="stray"):
        presentation(
            [("a", 1, True), ("b", 1, True), ("c", 1, True)],
            {("a", "b"): 1, ("a", "c"): 1},
            [("a", "b")],
        )
    with pytest.raises(ValueError, match="own meridian"):
        presentation([("a", 1, True)], {}, [("a", "a")])
    # a meridian may link its own declared meridians (chains)
    chain_presentation([1, 2, 2, 3])


def test_pruning_cascades_through_own_meridians():
    # c is a's meridian but knotted, so (c, a) goes; then a links c as a
    # stray component, so (a, b) goes too, while (d, b) stays
    comps = [
        Component("a", Fraction(1), True),
        Component("b", Fraction(2), True),
        Component("c", Fraction(3), False),
        Component("d", Fraction(1), True),
    ]
    linking = oracles.pair_rows([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    edges = {("c", "a"), ("a", "b"), ("d", "b")}
    p = _rebuild(comps, linking, edges, {"a", "b", "c", "d"})
    assert p.meridian_edges == frozenset({("d", "b")})
    assert p == presentation(
        [("a", 1, True), ("b", 2, True), ("c", 3, False), ("d", 1, True)],
        {("a", "b"): 1, ("a", "c"): 1, ("b", "d"): 1},
        [("d", "b")],
    )
    # with c unknotted nothing is dropped
    comps[2] = Component("c", Fraction(3), True)
    assert _rebuild(comps, linking, edges, {"a", "b", "c", "d"}).meridian_edges == frozenset(edges)


def test_presentation_rejects_bad_linking_entries():
    with pytest.raises(ValueError, match="^no component named 'y'$"):
        presentation([("x", 1, True)], {("x", "y"): 1})
    with pytest.raises(ValueError, match="^linking of x and y given twice with different values$"):
        presentation([("x", 1, True), ("y", 1, True)], {("x", "y"): 1, ("y", "x"): 2})
    p = presentation([("x", 1, True), ("y", 1, True)], {("x", "y"): -1, ("y", "x"): -1})
    assert p.lk("x", "y") == -1


# -- blow down / blow up ----------------------------------------------------


def test_blow_down_framing_rules():
    for eps in (1, -1):
        for lk in (1, 2):
            p = presentation(
                [("k", 5, True), ("u", eps, True)], {("k", "u"): lk}
            )
            q = blow_down(p, "u")
            assert q.component("k").coefficient == 5 - eps * lk * lk
            assert not q.component("k").unknotted  # no meridian edge, so downgraded


def test_blow_down_pairwise_linking():
    p = presentation(
        [("a", 2, True), ("b", 3, True), ("u", 1, True)],
        {("a", "u"): 1, ("b", "u"): 2, ("a", "b"): 1},
    )
    q = blow_down(p, "u")
    assert q.lk("a", "b") == 1 - 1 * 1 * 2
    assert q.component("a").coefficient == 1
    assert q.component("b").coefficient == -1


def test_blow_down_contract_errors():
    p = presentation([("k", 2, True)])
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        blow_down(p, "k")
    knotted = presentation([("k", 1, False)])
    with pytest.raises(ValueError, match="unknotted"):
        blow_down(knotted, "k")
    rational = presentation(
        [("k", "2/7", True), ("u", 1, True)], {("k", "u"): 1}
    )
    with pytest.raises(ValueError, match="rational"):
        blow_down(rational, "u")


def test_blow_down_keeps_infinite_coefficient():
    p = presentation([("k", INF, True), ("u", -1, True)], {("k", "u"): 1})
    q = blow_down(p, "u")
    assert q.component("k").coefficient is INF


def test_blow_down_meridian_exemption():
    p = presentation(
        [("a", 3, True), ("m", 1, True)], {("a", "m"): 1}, [("m", "a")]
    )
    q = blow_down(p, "m")
    assert q.component("a").unknotted
    assert q.component("a").coefficient == 2


def test_blow_down_retargets_unique_meridian():
    p = chain_presentation([1, 2, 2, 3])
    q = blow_down(p, "x")
    assert ("x.2", "x.2") not in q.meridian_edges
    assert q.meridian_edges == frozenset({("x.3", "x.2"), ("x.4", "x.3")})
    # with a downstream target the meridian re-aims at it
    p2 = presentation(
        [("main", 4, True), ("x", 1, True), ("m", 2, True)],
        {("main", "x"): 1, ("x", "m"): 1},
        [("x", "main"), ("m", "x")],
    )
    q2 = blow_down(p2, "x")
    assert ("m", "main") in q2.meridian_edges
    assert q2.lk("m", "main") == -1


def test_blow_down_two_meridians_drop_edges():
    p = presentation(
        [("main", 4, True), ("x", 1, True), ("m1", 2, True), ("m2", 2, True)],
        {("main", "x"): 1, ("x", "m1"): 1, ("x", "m2"): 1},
        [("x", "main"), ("m1", "x"), ("m2", "x")],
    )
    q = blow_down(p, "x")
    assert q.meridian_edges == frozenset()
    assert q.lk("m1", "m2") == -1  # the two meridians now link each other


def test_blow_down_rechecks_the_target_of_the_deleted_meridian():
    # x is main's meridian with two meridians of its own, so none is
    # re-aimed; main, itself base's meridian, then links m1 and m2 as
    # strays, and its own edge goes too
    p = presentation(
        [("base", 0, True), ("main", 4, True), ("x", 1, True), ("m1", 2, True), ("m2", 2, True)],
        {("base", "main"): 1, ("main", "x"): 1, ("x", "m1"): 1, ("x", "m2"): 1},
        [("main", "base"), ("x", "main"), ("m1", "x"), ("m2", "x")],
    )
    q = blow_down(p, "x")
    assert q.lk("main", "m1") == q.lk("main", "m2") == -1
    assert q.meridian_edges == frozenset()


def test_blow_up_then_down_restores_numbers():
    p = presentation(
        [("a", 2, True), ("b", -3, False)], {("a", "b"): 2}
    )
    q = blow_up(p, -1, [1, 2], name="w")
    assert q.component("w").coefficient == -1
    assert q.lk("a", "w") == 1 and q.lk("b", "w") == 2
    assert q.lk("a", "b") == 2 - 1 * 2
    back = blow_down(q, "w")
    assert back.linking == p.linking
    assert [c.coefficient for c in back.components] == [
        c.coefficient for c in p.components
    ]


def test_blow_up_validation():
    p = presentation([("a", 2, True)])
    with pytest.raises(ValueError):
        blow_up(p, 2, [0])
    with pytest.raises(ValueError):
        blow_up(p, 1, [0, 0])
    with pytest.raises(ValueError, match="already in use"):
        blow_up(p, 1, [0], name="a")
    assert blow_up(p, 1, [0]).components[-1].name == "u1"


# -- slam dunk and chains ---------------------------------------------------


def test_slam_dunk_basic():
    p = presentation(
        [("k", 3, True), ("m", "5/2", True)], {("k", "m"): 1}, [("m", "k")]
    )
    q = slam_dunk(p, "m", "k")
    assert len(q.components) == 1
    assert q.component("k").coefficient == Fraction(3) - Fraction(2, 5)


def test_slam_dunk_infinite_meridian():
    p = presentation(
        [("k", 3, True), ("m", INF, True)], {("k", "m"): 1}, [("m", "k")]
    )
    assert slam_dunk(p, "m", "k").component("k").coefficient == 3


def test_slam_dunk_errors():
    p = presentation(
        [("k", 3, True), ("m", 0, True)], {("k", "m"): 1}, [("m", "k")]
    )
    with pytest.raises(ValueError, match="0"):
        slam_dunk(p, "m", "k")
    with pytest.raises(ValueError, match="no meridian edge"):
        slam_dunk(p, "k", "m")
    chain = chain_presentation([1, 2, 2, 3])
    with pytest.raises(ValueError, match="tail"):
        slam_dunk(chain, "x.2", "x")  # x.3 still hangs off x.2
    rational_target = presentation(
        [("k", "5/2", True), ("m", 2, True)], {("k", "m"): 1}, [("m", "k")]
    )
    with pytest.raises(ValueError, match="integer"):
        slam_dunk(rational_target, "m", "k")


def test_chain_slam_dunks_back_to_rational():
    p = chain_presentation([1, 2, 2, 3])
    for tail, target in (("x.4", "x.3"), ("x.3", "x.2"), ("x.2", "x")):
        p = slam_dunk(p, tail, target)
    assert len(p.components) == 1
    assert p.component("x").coefficient == Fraction(2, 7)


def test_rational_to_chain_regenerates():
    p = presentation([("x", "2/7", True)])
    q = rational_to_chain(p, "x")
    assert render_presentation(q) == render_presentation(chain_presentation([1, 2, 2, 3]))
    with pytest.raises(ValueError, match="integer"):
        rational_to_chain(presentation([("x", 4, True)]), "x")
    with pytest.raises(ValueError):
        rational_to_chain(presentation([("x", INF, True)]), "x")


def test_rational_to_chain_name_collision():
    p = presentation([("x", "5/2", True), ("x.2", 1, True)])
    with pytest.raises(ValueError, match="already in use"):
        rational_to_chain(p, "x")


# -- handle slides ----------------------------------------------------------


def test_handle_slide_formulas():
    p = presentation(
        [("i", 2, True), ("j", 3, True), ("k", 5, True)],
        {("i", "j"): 1, ("j", "k"): 2, ("i", "k"): 0},
    )
    q = handle_slide(p, "i", "j", 1)
    assert q.component("i").coefficient == 2 + 3 + 2 * 1 * 1
    assert q.lk("i", "k") == 0 + 1 * 2
    assert q.lk("i", "j") == 1 + 1 * 3
    assert not q.component("i").unknotted
    assert q.component("j") == p.component("j")


def test_handle_slide_errors():
    p = presentation([("i", "1/2", True), ("j", 3, True)])
    with pytest.raises(ValueError, match="integer"):
        handle_slide(p, "i", "j", 1)
    q = presentation([("i", 1, True), ("j", 3, True)])
    with pytest.raises(ValueError, match="itself"):
        handle_slide(q, "i", "i", 1)
    with pytest.raises(ValueError, match="sign"):
        handle_slide(q, "i", "j", 2)


# -- slopes -----------------------------------------------------------------


@pytest.mark.parametrize(
    "text,num,den",
    [("2/7", 2, 7), ("-1/2", -1, 2), ("4", 4, 1), ("0", 0, 1), ("6/4", 3, 2), ("3/-4", -3, 4)],
)
def test_parse_slope_rationals(text, num, den):
    s = parse_slope(text)
    assert type(s) is Fraction and (s.numerator, s.denominator) == (num, den)


def test_parse_slope_inf_round_trip():
    assert parse_slope("inf") is INF
    assert format_slope(INF) == "inf"
    assert not is_integral(INF)
    assert is_integral(parse_slope("3"))
    assert not is_integral(parse_slope("3/2"))
    assert not is_integral(3) and not is_integral(1.0)


def test_parse_slope_rejects_garbage():
    for bad in ("", "x", "2/", "1.5", "1/2/3", "inf/2"):
        message = f"bad rational '{bad}': expected an integer, p/q or inf"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            parse_slope(bad)
    for bad in ("1/0", "0/0", "-3/0"):
        message = f"bad rational '{bad}': zero denominator"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            parse_slope(bad)


def test_format_slope_round_trip():
    for text in ("2/7", "-1/2", "4", "0", "inf", "-5"):
        assert format_slope(parse_slope(text)) == text


def test_format_slope_rejects_non_slopes():
    for bad in (0.5, 1.5, 3, True, None, "1/2"):
        message = f"slope must be a Fraction or INF, got {bad!r}"
        with pytest.raises(TypeError, match=re.escape(message)):
            format_slope(bad)


# -- continued fractions ----------------------------------------------------


@pytest.mark.parametrize(
    "slope,terms",
    [
        ("2/7", (1, 2, 2, 3)),
        ("5/2", (3, 2)),
        ("7/5", (2, 2, 3)),
        ("-1/2", (0, 2)),
        ("4", (4,)),
        ("-3", (-3,)),
    ],
)
def test_cfrac_frozen_expansions(slope, terms):
    cf = cfrac_expand(Fraction(slope))
    assert cf.terms == terms
    assert cfrac_eval(cf) == Fraction(slope)


def test_cfrac_canonical_form_enforced():
    ContinuedFraction((5, 2, 3))
    with pytest.raises(ValueError):
        ContinuedFraction((5, 1))
    with pytest.raises(ValueError):
        ContinuedFraction(())
    with pytest.raises(ValueError):
        cfrac_expand(INF)


@given(nonzero_fractions)
def test_cfrac_eval_inverts_expand(x):
    cf = cfrac_expand(x)
    assert cfrac_eval(cf) == x
    assert all(a >= 2 for a in cf.terms[1:])


@given(nonzero_fractions)
def test_chain_round_trip_property(x):
    if x.denominator == 1:
        return
    p = presentation([("x", x, True)])
    q = rational_to_chain(p, "x")
    names = [c.name for c in q.components]
    for tail, target in zip(reversed(names), reversed(names[:-1])):
        q = slam_dunk(q, tail, target)
    assert q.component("x").coefficient == x


# -- homology ---------------------------------------------------------------


def test_h1_basic_values():
    assert h1(presentation([("u", 0, True)])) == Homology((), 1)
    assert h1(presentation([("u", 1, True)])) == Homology((), 0)
    assert h1(presentation([("u", "2/7", True)])) == Homology((2,), 0)
    assert h1(presentation([("u", 5, True)])) == Homology((5,), 0)
    assert h1(presentation([("u", INF, True)])) == Homology((), 0)
    assert h1(presentation([("a", 2, True), ("b", 3, True)])) == Homology((6,), 0)
    assert h1(presentation([("a", 0, True), ("b", 0, True)])) == Homology((), 2)


def test_h1_hopf_pair():
    # [[2,1],[1,2]] presents Z/3
    p = presentation([("a", 2, True), ("b", 2, True)], {("a", "b"): 1})
    assert h1(p) == Homology((3,), 0)
    # det 0 pair: [[1,1],[1,1]]
    q = presentation([("a", 1, True), ("b", 1, True)], {("a", "b"): 1})
    assert h1(q) == Homology((), 1)


def test_h1_weighted_rational_rows():
    p = presentation(
        [("main", 4, True), ("x", "2/7", True)], {("main", "x"): 1}
    )
    # matrix [[4,1],[7,2]], det 1
    assert h1(p) == Homology((), 0)


def test_h1_render():
    assert Homology((), 0).render() == "trivial"
    assert Homology((), 1).render() == "Z"
    assert Homology((3,), 2).render() == "Z^2 + Z/3"
    assert Homology((2, 4), 0).render() == "Z/2 + Z/4"


def test_h1_invariant_factor_chain():
    # diag(2, 4) has factors 2 | 4, not 8
    p = presentation([("a", 2, True), ("b", 4, True)])
    assert h1(p) == Homology((2, 4), 0)


def test_h1_of_many_unlinked_unknots():
    # 300 diagonal 2s: no unit pivot, and 300 rounds of the Euclid loop
    p = presentation([(f"u{i}", 2, True) for i in range(300)])
    assert h1(p) == Homology((2,) * 300, 0)


def test_h1_of_a_long_unit_free_chain():
    # each 5/2-framed unknot links the next once: rows 2 * linking with 5 on
    # the diagonal, a banded matrix with no +-1 entry, whose H1 is cyclic
    n = 60
    names = [f"c{i}" for i in range(n)]
    p = presentation(
        [(name, "5/2", True) for name in names],
        {(a, b): 1 for a, b in zip(names, names[1:])},
    )
    m = [[5 if i == j else 2 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    assert h1(p) == Homology((abs(det_bareiss(m)),), 0)


def random_matrix(rng, rows, cols):
    bound = rng.choice([2, 6, 40])
    density = rng.random()
    m = [
        [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]
    if rng.random() < 0.25:
        m[rng.randrange(rows)] = [0] * cols
    if rows > 1 and rng.random() < 0.25:
        m[rng.randrange(rows)] = [-v for v in m[rng.randrange(rows)]]
    return m


def sparse(m):
    """The rows of a dense matrix as the {column: value} dicts _smith_diagonal takes."""
    return [{j: v for j, v in enumerate(row) if v} for row in m]


def test_smith_diagonal_matches_determinantal_divisors():
    # square, non-square, singular, zero rows and negative entries
    rng = random.Random(5150)
    for _ in range(300):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        rows = sparse(m)
        before = [dict(row) for row in rows]
        assert _smith_diagonal(rows) == invariant_factors(m), m
        assert rows == before


def chain_matrix(rng, n):
    # a tridiagonal +-1 chain with large diagonal entries and a few long links
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = rng.choice([-1, 1]) * rng.randint(1, 10**6)
        if i + 1 < n:
            m[i][i + 1] = m[i + 1][i] = rng.choice([-1, 1])
    for _ in range(n // 10):
        i, j = rng.sample(range(n), 2)
        m[i][j] = m[j][i] = rng.randint(-2, 2)
    return m


def test_smith_diagonal_on_large_chain_matrices():
    rng = random.Random(2718)
    for n in (20, 45, 80, 120):
        m = chain_matrix(rng, n)
        det = det_bareiss(m)
        assert det != 0
        factors = _smith_diagonal(sparse(m))
        assert len(factors) == n
        product = 1
        for d in factors:
            product *= d
        assert product == abs(det)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


def test_smith_diagonal_on_sparse_matrices_with_large_entries():
    rng = random.Random(1618)
    for _ in range(40):
        m = [
            [rng.randint(-(10**6), 10**6) if rng.random() < 0.3 else 0 for _ in range(6)]
            for _ in range(6)
        ]
        for i in rng.sample(range(6), 2):
            m[i][rng.randrange(6)] = rng.choice([-1, 1])
        rows = sparse(m)
        before = [dict(row) for row in rows]
        assert _smith_diagonal(rows) == invariant_factors(m), m
        assert rows == before


def test_smith_diagonal_on_wide_unit_free_cores():
    # with no +-1 entry the unit phase does nothing, so the Euclid loop gets
    # the whole matrix, wider than invariant_factors can check
    rng = random.Random(3141)
    tried = 0
    for n in range(7, 13):
        for density in (0.3, 0.5, 0.9) * 4:
            # a single value makes d1 that value, not 1
            values = rng.choice([(2, 3, 5), (2, 3, 5), (2,), (3,)])
            m = [
                [rng.choice(values) * rng.choice([1, -1]) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(n)
            ]
            det = det_bareiss(m)
            if det == 0:
                continue
            tried += 1
            rows = sparse(m)
            before = [dict(row) for row in rows]
            factors = _smith_diagonal(rows)
            assert rows == before
            assert len(factors) == n
            product = 1
            for d in factors:
                product *= d
            assert product == abs(det), m
            assert factors[0] == gcd(*(v for row in m for v in row)), m
            assert all(b % a == 0 for a, b in zip(factors, factors[1:])), m
    assert tried >= 40


def test_smith_diagonal_unit_pivots_beside_other_entries():
    # a unit whose row and column hold other entries, placed so that
    # clearing its column leaves a new unit in another row
    fixed = [
        [[1, 2], [1, 3]],
        [[1, 4, 6], [2, 9, 12], [3, 12, 20]],
        [[-1, 5, 0], [0, 1, 7], [3, 0, 1]],
        # clearing the first unit empties the second row
        [[1, 1], [1, 1]],
        [[1, 2], [2, 4]],
        [[-1, 3], [2, -6]],
    ]
    rng = random.Random(4181)
    randoms = []
    for _ in range(200):
        nr, nc = rng.randint(2, 5), rng.randint(2, 5)
        m = [[rng.choice([0, 0, 2, -3, 4, 6]) for _ in range(nc)] for _ in range(nr)]
        (i, k), (j, c) = rng.sample(range(nr), 2), rng.sample(range(nc), 2)
        p = m[i][j] = rng.choice([-1, 1])
        m[i][c] = rng.choice([2, -3, 5])
        a = m[k][j] = rng.choice([2, -3, 4])
        m[k][c] = a * p * m[i][c] + rng.choice([-1, 1])
        randoms.append(m)
    for m in fixed + randoms:
        rows = sparse(m)
        before = [dict(row) for row in rows]
        assert _smith_diagonal(rows) == invariant_factors(m), m
        assert rows == before


@st.composite
def unit_rich_matrices(draw):
    """Small sparse integer matrices, most entries 0 or +-1.

    Some get a +-1 that only fill-in makes: a unit p at (i, j) beside a at
    (i, c), and b at (k, j) beside a * b * p +- 1 at (k, c), where a and b
    are not units, so clearing column j leaves +-1 at (k, c).  Some are
    made singular: a row becomes the sum or difference of two others, or
    a column is zeroed.
    """
    nr, nc = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.sampled_from([0, 0, 0, 1, -1, 1, -1, 2, -3, 4])
    m = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    if nr > 1 and nc > 1 and draw(st.booleans()):
        i, k = draw(st.permutations(range(nr)))[:2]
        j, c = draw(st.permutations(range(nc)))[:2]
        p = m[i][j] = draw(st.sampled_from([1, -1]))
        a = m[i][c] = draw(st.sampled_from([2, -2, 3]))
        b = m[k][j] = draw(st.sampled_from([2, -3]))
        m[k][c] = a * b * p + draw(st.sampled_from([1, -1]))
    singular = draw(st.sampled_from([None, "row", "column"]))
    if singular == "row" and nr > 2:
        r, x, y = draw(st.permutations(range(nr)))[:3]
        sign = draw(st.sampled_from([1, -1]))
        m[r] = [u + sign * v for u, v in zip(m[x], m[y])]
    elif singular == "column":
        c = draw(st.integers(0, nc - 1))
        for row in m:
            row[c] = 0
    return m


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(unit_rich_matrices(), st.data())
def test_smith_diagonal_on_unit_rich_matrices_and_their_permutations(m, data):
    # the unit-pivot phase and the Euclid loop after it give the invariant
    # factors, whatever order the rows and columns come in
    factors = invariant_factors(m)
    rows = sparse(m)
    before = [dict(row) for row in rows]
    assert _smith_diagonal(rows) == factors
    assert rows == before
    order = data.draw(st.permutations(range(len(m))))
    columns = data.draw(st.permutations(range(len(m[0]))))
    permuted = [[m[i][j] for j in columns] for i in order]
    assert _smith_diagonal(sparse(permuted)) == factors


def test_h1_matches_determinantal_divisors():
    rng = random.Random(8128)
    for _ in range(150):
        k = rng.randint(1, 6)
        coeffs = [
            INF if rng.random() < 0.2 else Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
            for _ in range(k)
        ]
        m = random_matrix(rng, k, k)
        linking = {(f"c{i}", f"c{j}"): m[i][j] for i in range(k) for j in range(i + 1, k)}
        p = presentation([(f"c{i}", c, False) for i, c in enumerate(coeffs)], linking)
        # components framed inf are erased, with their rows and columns
        kept = [i for i, c in enumerate(coeffs) if c is not INF]
        rows = [
            [c.numerator if i == j else c.denominator * p.lk(f"c{i}", f"c{j}") for j in kept]
            for i, c in enumerate(coeffs)
            if c is not INF
        ]
        factors = invariant_factors(rows)
        assert h1(p) == Homology(tuple(d for d in factors if d > 1), len(kept) - len(factors))


# -- scripts and traces -----------------------------------------------------


AXIS_PRES = """
components 2
main 4 1
x 2/7 1
lk main x 1
meridian x main
"""

AXIS_SCRIPT = """
chain x
blowdown x
blowdown x.2
blowdown x.3
slamdunk x.4 main
"""


def test_kirby_reduce_chain_pipeline():
    p = parse_presentation(AXIS_PRES)
    final, trace = kirby_reduce(p, parse_script(AXIS_SCRIPT))
    assert len(final.components) == 1
    assert final.component("main").coefficient == Fraction(1, 2)
    assert trace.initial_h1 == Homology((), 0)
    assert all(step.h1 == trace.initial_h1 for step in trace.steps)
    assert [step.components_after for step in trace.steps] == [5, 4, 3, 2, 1]


def test_kirby_reduce_to_integer_form():
    p = parse_presentation(AXIS_PRES)
    script = parse_script(AXIS_SCRIPT + "chain main\nblowdown main\n")
    final, trace = kirby_reduce(p, script)
    assert len(final.components) == 1
    only = final.components[0]
    assert only.coefficient == 1 and only.coefficient.denominator == 1


def test_kirby_reduce_reports_step_index():
    p = parse_presentation(AXIS_PRES)
    with pytest.raises(ValueError, match=r"step 2 \(blowdown nope\)"):
        kirby_reduce(p, parse_script("chain x\nblowdown nope"))


def test_kirby_reduce_notes_wide_blowdown():
    p = presentation([("k", 5, True), ("u", 1, True)], {("k", "u"): 2})
    _, trace = kirby_reduce(p, [("blowdown", "u")])
    assert "more than once" in trace.steps[0].note


def test_kirby_reduce_empty_script():
    p = parse_presentation(AXIS_PRES)
    final, trace = kirby_reduce(p, [])
    assert final == p
    assert trace.steps == ()


def test_parse_presentation_errors():
    with pytest.raises(ValueError, match="header"):
        parse_presentation("a 1 1")
    with pytest.raises(ValueError, match="line 3"):
        parse_presentation("components 1\na 1 1\nb 2 x")
    with pytest.raises(ValueError, match="found 2"):
        parse_presentation("components 3\na 1 1\nb 2 0")
    with pytest.raises(ValueError, match="^line 3: no component named 'y'$"):
        parse_presentation("components 1\nx 1 1\nlk x y 1\n")
    with pytest.raises(ValueError, match="^line 2: no component named 'z'$"):
        parse_presentation("components 2\nlk z x 1\nx 1 1\ny 1 1\n")
    with pytest.raises(
        ValueError, match="^line 5: linking of x and y given twice with different values$"
    ):
        parse_presentation("components 2\nx 1 1\ny 1 1\nlk x y 1\nlk y x 2\n")
    # a repeat with the same value is legal
    p = parse_presentation("components 2\nx 1 1\ny 1 1\nlk x y 1\nlk y x 1\nlk x y 1\n")
    assert p.lk("x", "y") == 1 and h1(p) == Homology((), 1)


def test_parse_script_errors():
    with pytest.raises(ValueError, match="line 1"):
        parse_script("warp a")
    with pytest.raises(ValueError, match="line 2"):
        parse_script("blowdown a\nslide i j *")
    with pytest.raises(ValueError, match="line 1"):
        parse_script("slide i j +-")


def test_render_parse_round_trip():
    p = chain_presentation([1, 2, 2, 3])
    assert parse_presentation(render_presentation(p)) == p
    q = presentation([("a", INF, False), ("b", "-5/3", True)], {("a", "b"): -2})
    assert parse_presentation(render_presentation(q)) == q


def test_public_paths_reject_values_the_format_cannot_carry():
    # each of these would render, but not parse back to the same presentation
    base = presentation([("a", 2, True)])
    for bad in ("a b", "#c", "c#d", "", "components", "lk", "meridian"):
        with pytest.raises(ValueError, match="^component name "):
            presentation([(bad, 1, True)])
        with pytest.raises(ValueError, match="^component name "):
            SurgeryPresentation((Component(bad, Fraction(1), True),), ((),), frozenset())
        with pytest.raises(ValueError, match="^component name "):
            blow_up(base, 1, [0], name=bad)
    with pytest.raises(TypeError, match="^component name must be a str, got int$"):
        presentation([(5, 1, True)])
    with pytest.raises(TypeError, match="^linking values must be int, got bool True$"):
        presentation([("a", 1, True), ("b", 1, True)], {("a", "b"): True})
    two = (Component("a", Fraction(1), True), Component("b", Fraction(1), True))
    with pytest.raises(TypeError, match="^linking values must be int, got bool False$"):
        SurgeryPresentation(two, (((1, False),), ((0, False),)), frozenset())
    with pytest.raises(TypeError, match="^linking values must be int, got bool True$"):
        SurgeryPresentation(two, (((True, 1),), ((0, 1),)), frozenset())
    with pytest.raises(TypeError, match="^linking values must be int, got bool True$"):
        blow_up(base, 1, [True])
    # what the checks let through comes back unchanged
    p = presentation(
        [("lk2", 1, True), ("inf", "3/2", True), ("0", INF, False), ("m.2", -1, True)],
        {("lk2", "inf"): 1, ("inf", "0"): -3, ("m.2", "lk2"): 1},
        [("m.2", "lk2")],
    )
    p = blow_up(p, -1, [0, 1, 0, 0], name="x-1")
    assert parse_presentation(render_presentation(p)) == p


# -- randomized invariance --------------------------------------------------


def random_integer_presentation(rng, max_components=4):
    k = rng.randint(1, max_components)
    comps = [(f"c{i}", rng.randint(-5, 5), True) for i in range(k)]
    linking = {}
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < 0.6:
                linking[(f"c{i}", f"c{j}")] = rng.randint(-2, 2)
    return presentation(comps, linking)


def test_h1_invariance_random_spot():
    rng = random.Random(99)
    for _ in range(40):
        p = random_integer_presentation(rng)
        base = h1(p)
        v = [rng.randint(-2, 2) for _ in p.components]
        q = blow_up(p, rng.choice([1, -1]), v)
        assert h1(q) == base
        ints = [c.name for c in p.components]
        if len(ints) >= 2:
            i, j = rng.sample(ints, 2)
            assert h1(handle_slide(p, i, j, rng.choice([1, -1]))) == base


# -- each move checks only what it changed ----------------------------------


@st.composite
def valid_presentations(draw):
    """Presentations with chains and trees of meridians, stray links and knots.

    Each component but the first is drawn as a meridian of one of the
    three before it, linking it once, so chains and branches both occur;
    extra links, knotted flags and a stray edge then break some of those
    edges, and the full rebuild prunes them before the public constructor
    checks what is left.
    """
    k = draw(st.integers(2, 8))
    names = [f"c{i}" for i in range(k)]
    slope = st.sampled_from(
        [Fraction(n) for n in (-3, -2, -1, -1, -1, 0, 1, 1, 1, 2, 3)]
        + [Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4), INF]
    )
    comps = [Component(n, draw(slope), draw(st.integers(0, 9)) > 0) for n in names]
    mat = [[0] * k for _ in range(k)]
    edges = set()
    for i in range(1, k):
        target = i - draw(st.integers(1, min(i, 3)))
        mat[i][target] = mat[target][i] = draw(st.sampled_from([1, -1]))
        edges.add((names[i], names[target]))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        mat[i][j] = mat[j][i] = draw(st.integers(-2, 2))
    if k > 2 and draw(st.booleans()):
        edges.add(tuple(draw(st.permutations(names))[:2]))
    return SurgeryPresentation(*oracles.rebuild(comps, oracles.pair_rows(mat), edges))


def draw_move(data, p):
    """A move on components that meet its own contract, where there are any."""
    comps = p.components
    integral = [c.name for c in comps if is_integral(c.coefficient)]
    candidates = {
        "blowdown": [c.name for c in comps if c.unknotted and c.coefficient in (1, -1)],
        "chain": [
            c.name for c in comps if c.coefficient is not INF and not is_integral(c.coefficient)
        ],
        "slamdunk": sorted(p.meridian_edges),
        "slide": integral if len(integral) > 1 else [],
    }
    kind = data.draw(st.sampled_from(["blowup", *(k for k, v in candidates.items() if v)]))
    if kind == "blowup":
        entry = st.sampled_from([0, 0, 1, -1, 2])
        vector = data.draw(st.lists(entry, min_size=len(comps), max_size=len(comps)))
        return ("blowup", data.draw(st.sampled_from([1, -1])), tuple(vector))
    if kind == "slide":
        i, j = data.draw(st.permutations(integral))[:2]
        return ("slide", i, j, data.draw(st.sampled_from([1, -1])))
    if kind == "slamdunk":
        return ("slamdunk", *data.draw(st.sampled_from(candidates[kind])))
    return (kind, data.draw(st.sampled_from(candidates[kind])))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(valid_presentations(), st.data())
def test_moves_match_the_full_rebuild(p, data):
    # every move's result, edges pruned and matrix checked only where it
    # changed, equals the full rebuild of what the move built
    real = surgery._rebuild
    rebuilt = []

    def spy(components, linking, edges, changed):
        result = real(components, linking, edges, changed)
        rebuilt.append(oracles.rebuild(components, linking, edges))
        return result

    with mock.patch.object(surgery, "_rebuild", spy):
        for _ in range(data.draw(st.integers(1, 6))):
            move = draw_move(data, p)
            try:
                p = apply_move(p, move)
            except ValueError:
                continue  # the move's own contract, checked before any rebuild
            assert p == rebuilt[-1], move
            assert p == SurgeryPresentation(*p)
    assume(rebuilt)


def rebuilt_by_the_oracle(p, move):
    """The move's result, checked against the full rebuild of what it built."""
    built = []
    real = surgery._rebuild

    def spy(components, linking, edges, changed):
        built.append(oracles.rebuild(components, linking, edges))
        return real(components, linking, edges, changed)

    with mock.patch.object(surgery, "_rebuild", spy):
        q = apply_move(p, move)
    assert q == built[0] == SurgeryPresentation(*q)
    assert all(v for row in q.linking for _, v in row)
    return q


def test_moves_that_cancel_a_linking_number_store_no_zero():
    # lk(a, b) = 1 - 1 * 1 * 1 after blowing down u
    p = presentation(
        [("a", 2, True), ("b", 3, True), ("u", 1, True)],
        {("a", "b"): 1, ("a", "u"): 1, ("b", "u"): 1},
    )
    q = rebuilt_by_the_oracle(p, ("blowdown", "u"))
    assert q.linking == ((), ()) and q.lk("a", "b") == 0
    # sliding i over j with sign -1: lk(i, x) = 1 - 1 and lk(i, j) = 2 - 2
    p = presentation(
        [("i", 1, True), ("j", 2, True), ("x", 5, True), ("y", 1, True)],
        {("i", "x"): 1, ("j", "x"): 1, ("i", "j"): 2, ("j", "y"): 1},
    )
    q = rebuilt_by_the_oracle(p, ("slide", "i", "j", -1))
    assert q.lk("i", "x") == q.lk("i", "j") == 0 and q.lk("i", "y") == -1
    assert q.linking == (((3, -1),), ((2, 1), (3, 1)), ((1, 1),), ((0, -1), (1, 1)))


@pytest.mark.parametrize("at", [0, 2, 4])
def test_slam_dunk_renumbers_the_columns_after_the_meridian(at):
    # the meridian m of b first, in the middle and last; the rest keep
    # their linking, and every column after m's moves down by one
    names = ["a", "b", "c", "d"]
    linking = {("a", "b"): 1, ("b", "c"): 2, ("c", "d"): -1, ("a", "d"): 3}
    comps = [(n, 2, True) for n in names]
    p = presentation(
        comps[:at] + [("m", "1/3", True)] + comps[at:], {**linking, ("m", "b"): 1}, [("m", "b")]
    )
    q = rebuilt_by_the_oracle(p, ("slamdunk", "m", "b"))
    assert q == presentation([("a", 2, True), ("b", -1, True), ("c", 2, True), ("d", 2, True)], linking)


def test_kirby_reduce_calls_the_module_h1_once_per_step(monkeypatch):
    # perfbench times each step by wrapping surgery.h1, so kirby_reduce
    # must call that global once for the input and once after each move
    calls = []
    real = surgery.h1

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(surgery, "h1", counting)
    script = parse_script(AXIS_SCRIPT + "chain main\nblowdown main\n")
    _, trace = kirby_reduce(parse_presentation(AXIS_PRES), script)
    assert len(calls) == len(script) + 1
    assert all(len(args) == 1 and not kwargs for args, kwargs in calls)
    assert [args[0] for args, _ in calls[1:]] == [step.result for step in trace.steps]


def test_messages_of_rarely_failing_checks():
    assert repr(INF) == "inf"
    a = (Component("a", Fraction(1), True),)
    for linking in ((), ((), ())):
        with pytest.raises(ValueError, match="^linking matrix size must match component count$"):
            SurgeryPresentation(a, linking, frozenset())
    with pytest.raises(ValueError, match="^meridian edge a->zz: unknown component$"):
        presentation([("a", 1, True)], {}, [("a", "zz")])
    with pytest.raises(ValueError, match="^unknown move 'warp'$"):
        apply_move(presentation([("a", 1, True)]), ("warp", "a"))
