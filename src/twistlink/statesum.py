"""Kauffman bracket by state-sum contraction, one crossing at a time.

Kauffman's state model sums A^(a-b) * delta^(loops-1) over all 2^c
smoothings of a diagram, delta = -A^2 - A^-2.  Following the local
gluing of Bar-Natan ("Fast Khovanov homology computations", 2007), the
smoothings are not enumerated one by one: the crossings are glued one
at a time and all partial states that leave the open arcs paired the
same way are merged.

Order.  An arc is open once one of its two ends has been glued; the open
arcs form the frontier, and the work grows with the frontier's peak,
not with c (Bar-Natan; Burton, "The HOMFLY-PT polynomial is
fixed-parameter tractable", SoCG 2018).  Glued in word order, a braid
closure's frontier is about as wide as the word, twice its strands,
while a closure of many strands and few periods has a much narrower
sweep.  So one pass over the arc ends finds word order's peak, and a
bucket queue then glues next the unglued crossing that touches the most
open arcs; it gives up, and word order is kept, as soon as its frontier
reaches that peak.  Both passes are linear in c, a tie keeps word
order, and the plan below is built once, for the order chosen.  Nothing
after it depends on which order that is, as the next three paragraphs
show.

Keys.  A key lists, for each frontier position, the position of the
open arc at the other end of its path through the glued region; keys
are interned to small ids.  That describes the region's pairing
whichever crossings it holds.  An arc that opens at a crossing takes
the frontier position of one that closes there, so a braid closure
glued in word order keeps its strand order.  A crossing's shape is the
frontier length and a label for each of its four arcs: its frontier
position, or f plus its index among the four if it is not open yet.
In any order, an arc that is not open yet either meets the crossing
twice or opens there with its far end at a crossing still unglued, and
the labels say which.  So the shape fixes how every key moves under each
smoothing, the identity and the cup-cap; the crossing's sign only picks
which of the two is the A smoothing.  Each shape therefore caches key
-> (key, loops) of the identity and of the cup-cap, and a crossing and
its mirror share one table.  A move depends on nothing but the shape and
the key, so the shape tables and the key ids belong to a run, not to a
call: they live in a ``Tables`` object that the run passes to each call,
and each call, such as the next item of a batch, reuses the moves that
earlier calls of the run computed.  Only the values, ``low`` and the
slot width belong to one call, and a call given no tables starts from
fresh ones.  A tables object takes no lock, so it belongs to one
thread.  Nothing is evicted while the run lasts, and all of it is freed
with the tables object when the run ends.

Values.  The value of a key is one Python int whose signed slots of
``width`` bits hold the coefficients of a polynomial in A, one A^2
apart, the format ``poly.unpack`` decodes; the whole frontier shares
the exponent ``low`` of slot 0.  Each loop is folded in as a factor
delta = -A^-2 (1 + A^4) when it closes.  When no arc is left open
after a crossing, the glued crossings form whole pieces of the diagram,
in any order, and in every state the last join closes a loop; that loop is not counted, and the bracket is the
result times delta^(free loops + pieces - 1), whose binomials are built
each from the one before.  A join with an arc that opens at the crossing
leaves that arc's far end open, so only joins of arcs that are open
already, or that meet the crossing twice, can close a loop.  This bounds
the loops counted in the identity and in the cup-cap by numbers the
shape fixes; with m_A and m_B the bounds for the A and B smoothings, a
crossing lowers ``low`` by max(2 m_A - 1, 2 m_B + 1), so that
A^+-1 * delta^L lands on whole slots at or above slot 0.  That drop
depends on the sign, so a shape keeps one for each.  The slots that are
then zero in every entry are shifted out at the next crossing.

Width.  Every step is a ring operation on exact ints, and a shift to
the right drops only zero bits, so the int ``_contract`` returns is the
value at 2^width of its true slot polynomial, whatever the coefficients
on the way; it decodes exactly when each final coefficient fits a
signed slot.  That polynomial is the product, over the pieces, of each
piece's bracket before the delta power.  By Thistlethwaite's
spanning-tree expansion, the bracket of a connected diagram of c_i
crossings is a sum of one monomial +-A^k per spanning tree of its Tait
graph, which has c_i edges, so its coefficients add up to at most
2^(c_i) in absolute value.  A piece that is a split union of k parts
carries delta^(k-1), whose coefficients add up to 2^(k-1).  There are at
most mu parts in all, mu the link's component count, and the bound is
multiplicative, so every coefficient is at most 2^(c+mu-1) in absolute
value, which ``slot_width`` holds with a sign bit.  The guards of
``poly.check_bracket`` test only the decoded bracket, against values
every link has; ``bracket`` raises RuntimeError if either fails.

This module shares no skein code with the Temperley-Lieb route.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .diagram import PlanarDiagram, writhe
from .poly import LaurentPoly, check_bracket, unpack


def slot_width(crossings: int, components: int) -> int:
    """Bits per packed coefficient: c+mu for |coefficient| <= 2^(c+mu-1), one for the sign."""
    return crossings + components + 1


def _gluing_order(arcs: list[tuple[int, int, int, int]]) -> list[int]:
    """Indices of the crossings, given by their arcs, in the order to glue them.

    Word order's peak frontier comes from one pass over the arc ends: an
    arc is open from its first end to its last.  Then a bucket queue
    glues next the unglued crossing that touches the most open arcs, the
    crossing bumped last first on ties.  As soon as its frontier reaches
    word order's peak it gives up, so word order is kept unless the
    queue's order has a strictly smaller peak.
    """
    c = len(arcs)
    # ends[a]: the index of the first crossing arc a meets, then the sum
    # of the indices of both
    ends = [-1] * (1 + max(map(max, arcs), default=-1))
    f = word_peak = 0
    for t, quad in enumerate(arcs):
        for a in quad:
            e = ends[a]
            if e < 0:
                ends[a] = t
                f += 1
            else:
                ends[a] = e + t
                f -= 1
        if f > word_peak:
            word_peak = f

    count = [0] * c  # open arcs each unglued crossing touches
    buckets: list[list[int]] = [list(range(c - 1, -1, -1)), [], [], [], []]
    done = bytearray(c)
    order = []
    f = top = 0
    for _ in range(c):
        bucket = buckets[top]
        while True:
            if not bucket:
                top -= 1
                bucket = buckets[top]
                continue
            t = bucket.pop()
            if count[t] == top and not done[t]:  # else a stale entry
                break
        done[t] = 1
        order.append(t)
        for a in arcs[t]:
            u = ends[a] - t
            if u == t:  # an arc that meets this crossing twice never opens
                continue
            if done[u]:
                f -= 1
            else:
                f += 1
                k = count[u] = count[u] + 1
                buckets[k].append(u)
                if k > top:
                    top = k
        if f >= word_peak:
            return list(range(c))
    return order


def _shape(f: int, labels: tuple[int, ...]) -> tuple:
    """Moves cache, joins, next frontier and drops of one crossing shape."""
    il, ir, ol, orr = labels
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
    most_ident = (i and k) + (j and m) - (not kept)
    most_cupcap = (i and j) + (k and m) - (not kept)
    # the A smoothing is the identity at a positive crossing, the cup-cap
    # at a negative one: drops[sign > 0]
    drops = (
        max(2 * most_cupcap - 1, 2 * most_ident + 1),
        max(2 * most_ident - 1, 2 * most_cupcap + 1),
    )
    joins = (((il, ol), (ir, orr)), ((il, ir), (ol, orr)))
    return {}, joins, kept, newpos, drops


class Tables:
    """The shape tables and key ids of one run (see Keys above).

    ``shapes`` maps a shape to (moves, joins, kept, newpos, drops),
    where moves maps a key id to [key id, loops] of the identity followed
    by those of the cup-cap, and ``keys`` and ``ids`` intern the keys.
    """

    def __init__(self) -> None:
        self.shapes: dict[tuple, tuple] = {}
        self.keys: list[tuple[int, ...]] = [()]
        self.ids: dict[tuple[int, ...], int] = {(): 0}


def _contract(d: PlanarDiagram, tables: Tables) -> tuple[int, int, int, int]:
    """Packed bracket before the delta power, with its ``low``, slot width and pieces."""
    keys, ids, shapes = tables.keys, tables.ids, tables.shapes
    crossings = d.crossings
    # a record is (sign, in_left, in_right, out_left, out_right)
    arcs = [c[1:] for c in crossings]
    plan = []
    frontier: list[int] = []
    for t in _gluing_order(arcs):
        quad = arcs[t]
        f = len(frontier)
        pos = {a: i for i, a in enumerate(frontier)}
        labels = tuple([pos[a] if a in pos else f + quad.index(a) for a in quad])
        entry = shapes.get((f, labels))
        if entry is None:
            entry = shapes[f, labels] = _shape(f, labels)
        plan.append((f, crossings[t][0] > 0, entry))
        kept = entry[2]
        frontier = [frontier[i] if i < f else quad[i - f] for i in kept]

    width = slot_width(len(crossings), len(d.components))
    curl = 2 * width
    states = {0: 1}
    low = spare = pieces = 0
    for f, positive, (moves, joins, kept, newpos, drops) in plan:
        ends_piece = not kept  # its last loop goes to ``pieces``, not to the values
        pieces += ends_piece
        drop = drops[positive]
        # the values hold ``spare`` empty low slots, shifted out here
        low += 2 * spare - drop
        shift_b = (drop // 2 - spare) * width
        shift_a = shift_b + width
        nxt: dict[int, int] = {}
        get = nxt.get
        for k, v in states.items():
            move = moves.get(k)
            if move is None:
                # [key, loops] of the identity, then of the cup-cap; a join
                # closes a loop when its ends are the two ends of one path,
                # or of one arc that meets this crossing twice
                move = []
                for pairs in joins:
                    partner = [*keys[k], f, f + 1, f + 2, f + 3]
                    loops = -ends_piece
                    for x, y in pairs:
                        end_x = partner[x]
                        if end_x == y:
                            loops += 1
                        else:
                            end_y = partner[y]
                            partner[end_x] = end_y
                            partner[end_y] = end_x
                    key = tuple([newpos[partner[x]] for x in kept])
                    key_id = ids.get(key)
                    if key_id is None:
                        # append first: an interrupt here must not leave an
                        # id that the next new key would get again
                        keys.append(key)
                        key_id = ids[key] = len(keys) - 1
                    move += key_id, loops
                moves[k] = move
            if positive:
                ka, la, kb, lb = move
            else:
                kb, lb, ka, la = move
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

    return states.get(0, 0), low, width, pieces


def _times_delta_power(table: dict[int, int], k: int) -> dict[int, int]:
    """``table`` times delta^k, without its zero coefficients.

    delta^k = (-1)^k sum_j C(k, j) A^(4j-2k), and each binomial is the one
    before it times (k - j) / (j + 1), so the product costs k+1 passes
    over the table and no binomial is computed twice.
    """
    product: dict[int, int] = {}
    binomial = -1 if k % 2 else 1
    for j in range(k + 1):
        shift = 4 * j - 2 * k
        for e, coef in table.items():
            product[e + shift] = product.get(e + shift, 0) + coef * binomial
        binomial = binomial * (k - j) // (j + 1)
    return {e: coef for e, coef in product.items() if coef}


def bracket(d: PlanarDiagram, tables: Tables | None = None) -> LaurentPoly:
    """Kauffman bracket of ``d``, normalized to <unknot> = 1.

    ``tables`` carries the shape tables and key ids of earlier calls in
    the same run; without it the call starts from fresh tables.  Raises
    RuntimeError if the decoded bracket fails the check at A = 1 or at
    A = e^(i pi/3).
    """
    if tables is None:
        tables = Tables()
    packed, low, width, pieces = _contract(d, tables)
    table = unpack(packed, low, width)
    extra = len(d.free_loops) + pieces - 1
    if extra:
        table = _times_delta_power(table, extra)
    return check_bracket(table, writhe(d), len(d.components), width, "state-sum")
