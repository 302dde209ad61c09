"""Kauffman bracket by state-sum contraction, one crossing at a time.

Kauffman's state model sums A^(a-b) * delta^(loops-1) over all 2^c
smoothings of a diagram, delta = -A^2 - A^-2.  Following the local
gluing of Bar-Natan ("Fast Khovanov homology computations", 2007), the
smoothings are not enumerated one by one: the crossings are glued in
word order and all partial states that leave the open arcs paired the
same way are merged.

Keys.  An arc is open once one of its two ends has been glued; the open
arcs form the frontier.  An arc that opens at a crossing takes the
frontier position of one that closes there, so a braid closure keeps
its strand order.  A key lists, for each frontier position, the position
of the open arc at the other end of its path through the glued region;
keys are interned to small ids.  A crossing's shape is the frontier
length, a label for each of its four arcs (its frontier position, or f
plus its index among the four if it is not open yet) and its sign.  The
shape fixes how every key moves, so each shape caches key -> (key_A,
loops_A, key_B, loops_B) for the rest of the call.

Values.  The value of a key is one Python int whose signed slots of
``width`` bits hold the coefficients of a polynomial in A, one A^2
apart; the whole frontier shares the exponent ``low`` of slot 0.  Each
loop is folded in as a factor delta = -A^-2 (1 + A^4) when it closes.
When no arc is left open after a crossing, a piece of the diagram is
complete and every state closes a loop there; that loop is not counted,
and the bracket is the result times delta^(free loops + pieces - 1), one
``delta_power`` product.  A join with an arc that opens at the crossing
leaves that arc's far end open, so only joins of arcs that are open
already, or that meet the crossing twice, can close a loop; this bounds
the loops counted in each smoothing by m_A and m_B.  A crossing lowers
``low`` by max(2 m_A - 1, 2 m_B + 1), so that A^+-1 * delta^L lands on
whole slots at or above slot 0, and the slots that are then zero in
every entry are shifted out at the next crossing.

Width.  An int is the value of its slot polynomial at 2^width, and every
step is a ring operation, so the result is exact as long as no slot
overflows.  Measure the frontier by the sum of the absolute values of
all coefficients of all its values.  A crossing sends each value v to
A * delta^L_A * v and A^-1 * delta^L_B * v, and the coefficients of
delta^L add up to 2^L in absolute value, so the measure grows by at most
2^m_A + 2^m_B.  Every coefficient, intermediate or final, is thus at
most the product ``growth`` of these factors (at most 8^c), which
``slot_width`` holds with a sign bit.  As runtime guards the bracket at
A = 1 must equal (-1)^w (-2)^(mu-1), with w the writhe and mu the number
of components, because the Jones polynomial at t = 1 is (-2)^(mu-1); and
at A = zeta = e^(i pi/3), where -A^3 = 1 and delta = 1, it must equal 1,
because V(e^(2 pi i/3)) = 1 for every link (Jones, Bull. AMS 12, 1985).
The second check reduces each exponent mod 6 and uses zeta^2 = zeta - 1,
so it is exact in integers; it catches wrong decodes whose value at
A = 1 is still right.  ``bracket`` raises RuntimeError if either check
fails.

This module shares no skein code with the Temperley-Lieb route.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .diagram import PlanarDiagram
from .poly import VAR_A, LaurentPoly, delta_power


def slot_width(growth: int) -> int:
    """Bits per packed coefficient: enough for |coefficient| <= growth, one more for the sign."""
    return growth.bit_length() + 1


def _glue(partner: list[int], x: int, y: int) -> int:
    """Join the path ends labelled ``x`` and ``y``; return 1 if that closes a loop."""
    if x == y:  # both ends of one arc meet at this crossing
        return 1
    end_x = partner[x]
    if end_x == y:  # x and y are the two ends of one open path
        return 1
    end_y = partner[y]
    partner[end_x] = end_y
    partner[end_y] = end_x
    return 0


def _shape(f: int, labels: tuple[int, ...], sign: int) -> tuple:
    """Joins, next frontier, growth bound and exponent drop of one crossing shape."""
    il, ir, ol, orr = labels
    ident, cupcap = ((il, ol), (ir, orr)), ((il, ir), (ol, orr))
    # an arc is known here if it is open or meets this crossing twice
    i, j, k, m = known = [x < f or labels.count(x) > 1 for x in labels]
    opened = [x for x, seen in zip(labels, known) if not seen]
    # an arc that opens here takes the place of one that closes here
    kept = list(range(f))
    for x in labels:
        if x < f:
            kept[x] = opened.pop(0) if opened else -1
    kept = [x for x in kept if x >= 0] + opened
    newpos = [-1] * (f + 4)
    for p, x in enumerate(kept):
        newpos[x] = p
    # only a join of two known arcs can close a loop, and a crossing that
    # leaves no arc open closes the last loop of a piece in every state
    loops_ident = (i and k) + (j and m) - (not kept)
    loops_cupcap = (i and j) + (k and m) - (not kept)
    if sign > 0:
        joins, most_a, most_b = (ident, cupcap), loops_ident, loops_cupcap
    else:
        joins, most_a, most_b = (cupcap, ident), loops_cupcap, loops_ident
    drop = max(2 * most_a - 1, 2 * most_b + 1)
    return {}, joins, kept, newpos, (1 << most_a) + (1 << most_b), drop


def _move(key: tuple[int, ...], f: int, joins, kept, newpos, keys, ids) -> list[int]:
    """[key_A, loops_A, key_B, loops_B] for ``key`` at a crossing shape, keys as ids."""
    move = []
    for (x1, y1), (x2, y2) in joins:
        partner = [*key, f, f + 1, f + 2, f + 3]
        loops = _glue(partner, x1, y1) + _glue(partner, x2, y2) - (not kept)
        key2 = tuple([newpos[partner[x]] for x in kept])
        key_id = ids.get(key2)
        if key_id is None:
            key_id = ids[key2] = len(keys)
            keys.append(key2)
        move += key_id, loops
    return move


def bracket(d: PlanarDiagram) -> LaurentPoly:
    """Kauffman bracket of ``d``, normalized to <unknot> = 1.

    Raises RuntimeError if the decoded bracket fails the check at A = 1 or
    at A = e^(i pi/3).
    """
    shapes: dict[tuple, tuple] = {}
    plan = []
    frontier: list[int] = []
    growth = 1
    for cr in d.crossings:
        f = len(frontier)
        arcs = (cr.in_left, cr.in_right, cr.out_left, cr.out_right)
        pos = {a: i for i, a in enumerate(frontier)}
        labels = tuple([pos[a] if a in pos else f + arcs.index(a) for a in arcs])
        shape = (f, labels, cr.sign)
        entry = shapes.get(shape)
        if entry is None:
            entry = shapes[shape] = _shape(*shape)
        plan.append((f, entry))
        kept, factor = entry[2], entry[4]
        frontier = [frontier[i] if i < f else arcs[i - f] for i in kept]
        growth *= factor

    width = slot_width(growth)
    curl = 2 * width
    keys: list[tuple[int, ...]] = [()]
    ids = {(): 0}
    states = {0: 1}
    low = spare = pieces = 0
    for f, (moves, joins, kept, newpos, _, drop) in plan:
        pieces += not kept
        # the values hold ``spare`` empty low slots, shifted out here
        low += 2 * spare - drop
        shift_b = (drop // 2 - spare) * width
        shift_a = shift_b + width
        nxt: dict[int, int] = {}
        get = nxt.get
        for k, v in states.items():
            move = moves.get(k)
            if move is None:
                move = moves[k] = _move(keys[k], f, joins, kept, newpos, keys, ids)
            ka, la, kb, lb = move
            s = shift_a - la * width  # A * delta^L lands L slots lower
            x = v << s if s > 0 else v >> -s if s else v
            if la:  # times (-1 - A^4)^la
                x = -(x + (x << curl))
                if la > 1:
                    x = -(x + (x << curl))
            prev = get(ka)
            nxt[ka] = x if prev is None else prev + x
            s = shift_b - lb * width
            x = v << s if s > 0 else v >> -s if s else v
            if lb:
                x = -(x + (x << curl))
                if lb > 1:
                    x = -(x + (x << curl))
            prev = get(kb)
            nxt[kb] = x if prev is None else prev + x
        states = nxt
        lowest = reduce(or_, nxt.values())
        spare = ((lowest & -lowest).bit_length() - 1) // width if lowest else 0

    packed = states.get(0, 0)
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    table: dict[int, int] = {}
    while packed:
        coef = packed & mask
        if coef >= half:
            coef -= 1 << width
        if coef:
            table[low] = coef
        packed = (packed - coef) >> width
        low += 2
    extra = len(d.free_loops) + pieces - 1
    if extra:
        terms = list(delta_power(extra).terms())
        product: dict[int, int] = {}
        for e, coef in table.items():
            for e2, k in terms:
                product[e + e2] = product.get(e + e2, 0) + coef * k
        table = {e: coef for e, coef in product.items() if coef}
    result = LaurentPoly._raw(VAR_A, table)

    # coefficient sums by exponent mod 6, for the checks at A = 1 and at
    # A = zeta = e^(i pi/3), where zeta^2 = zeta - 1 and zeta^3 = -1
    sums = [0] * 6
    for e, coef in table.items():
        sums[e % 6] += coef
    w = sum(cr.sign for cr in d.crossings)
    expected = (-1) ** (w % 2) * (-2) ** (len(d.components) - 1)
    at_one = sum(sums)
    if at_one != expected:
        raise RuntimeError(
            f"state-sum bracket at A = 1 is {at_one}, expected {expected}: "
            f"slots of {width} bits overflowed"
        )
    # -zeta^3 = 1 and V(e^(2 pi i/3)) = 1, so every bracket is 1 at zeta
    x = sums[0] - sums[2] - sums[3] + sums[5]
    y = sums[1] + sums[2] - sums[4] - sums[5]
    if (x, y) != (1, 0):
        sign = "-" if y < 0 else "+"
        raise RuntimeError(
            f"state-sum bracket at A = e^(i pi/3) is {x} {sign} {abs(y)} zeta, expected 1: "
            f"slots of {width} bits overflowed"
        )
    return result
