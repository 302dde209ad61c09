"""Kauffman bracket by state-sum contraction, one crossing at a time.

Kauffman's state model sums A^(a-b) * delta^(loops-1) over all 2^c
smoothings of a diagram.  Following the local-gluing idea of Bar-Natan
("Fast Khovanov homology computations", 2007), the smoothings are not
enumerated one by one: the crossings are glued in word order and all
partial states that leave the open arcs paired the same way are merged.

An arc is open once one of its two ends has been glued.  A frontier key
lists, for each open arc in a fixed order, the open arc at the other end
of its path through the glued region.  The value of a key is one Python
int holding the number of partial states for every (B-count, loops)
pair, packed into slots of c+2 bits: no count exceeds 2^c, so slots
never carry into each other.  For a braid closure at most 2n arcs are
open at once, so the work is bounded by the frontier, not by 2^c.

This module shares no skein code with the Temperley-Lieb route.
"""

from __future__ import annotations

from .diagram import PlanarDiagram
from .poly import VAR_A, LaurentPoly, delta_power


def _glue(partner: dict[int, int], x: int, y: int) -> int:
    """Join arc ends ``x`` and ``y``; return 1 if that closes a loop."""
    if x == y:  # both ends of one arc meet at this crossing
        return 1
    end_x = partner.pop(x, x)
    if end_x == y:  # x and y are the two ends of one open path
        del partner[y]
        return 1
    end_y = partner.pop(y, y)
    partner[end_x] = end_y
    partner[end_y] = end_x
    return 0


def _smoothings(sign: int, il: int, ir: int, ol: int, orr: int):
    """The two arc joins of the A smoothing, then those of the B smoothing.

    A smooths a positive crossing to the identity tangle and B to the
    cup-cap; a negative crossing swaps the roles.
    """
    ident = ((il, ol), (ir, orr))
    cupcap = ((il, ir), (ol, orr))
    return (ident, cupcap) if sign > 0 else (cupcap, ident)


def smoothing_counts(d: PlanarDiagram) -> dict[tuple[int, int], int]:
    """Number of smoothing states of ``d`` for each (B-count, loops).

    Raises RuntimeError if the counts do not add up to 2^c.
    """
    c = len(d.crossings)
    width = c + 2
    loop_shift = width * (c + 1)  # b <= c, so a loop slot spans c+1 b-slots
    seen: set[int] = set()
    frontier: tuple[int, ...] = ()
    states: dict[tuple[int, ...], int] = {(): 1}
    for cr in d.crossings:
        arcs = (cr.in_left, cr.in_right, cr.out_left, cr.out_right)
        closing = {a for a in arcs if a in seen}
        seen.update(arcs)
        opened = tuple(a for a in arcs if a not in closing and arcs.count(a) == 1)
        nxt_frontier = tuple(a for a in frontier if a not in closing) + opened
        smooth_a, smooth_b = _smoothings(cr.sign, *arcs)
        nxt: dict[tuple[int, ...], int] = {}
        for key, value in states.items():
            here = dict(zip(frontier, key))
            for (x1, y1), (x2, y2), shift in ((*smooth_a, 0), (*smooth_b, width)):
                partner = here.copy()
                loops = _glue(partner, x1, y1) + _glue(partner, x2, y2)
                k = tuple([partner[a] for a in nxt_frontier])
                nxt[k] = nxt.get(k, 0) + (value << (shift + loops * loop_shift))
        frontier, states = nxt_frontier, nxt

    packed = states[()]
    free = len(d.free_loops)
    mask = (1 << width) - 1
    hist: dict[tuple[int, int], int] = {}
    slot = 0
    while packed:
        count = packed & mask
        if count:
            loops, b = divmod(slot, c + 1)
            hist[(b, loops + free)] = count
        packed >>= width
        slot += 1
    if sum(hist.values()) != 1 << c:
        raise RuntimeError(f"state counts sum to {sum(hist.values())}, expected 2^{c}")
    return hist


def bracket(d: PlanarDiagram) -> LaurentPoly:
    """Kauffman bracket of ``d``, normalized to <unknot> = 1."""
    c = len(d.crossings)
    # bracket = sum count * A^(c-2b) * delta^(loops-1)
    table: dict[int, int] = {}
    for (b, loops), count in smoothing_counts(d).items():
        for e, k in delta_power(loops - 1).terms():
            e += c - 2 * b
            table[e] = table.get(e, 0) + count * k
    return LaurentPoly(VAR_A, table)
