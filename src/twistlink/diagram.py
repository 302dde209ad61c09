"""Planar diagrams of braid closures: crossings, components, DT codes.

Diagrams are built only from braid words (every knot in scope arrives as a
braid), so planarity is guaranteed by construction and never validated.
The only simplification applied is free reduction of adjacent inverse
letters, including across the closure seam, before the diagram is built;
crossing counts are otherwise those of the word.  A word with nothing to
cancel, such as one the caller has reduced already, comes back from the
reduction as itself, so reducing it again costs one scan.

Arc identifiers are dense integers.  Arcs 0..n-1 are the closure arcs at
strand positions 1..n; a position never touched by a crossing keeps its
closure arc as a crossing-free loop.

Each ``Crossing`` is built as ``tuple.__new__`` builds it, with no call
to the record's own constructor, in the one pass over the letters that
also numbers the arcs and links each arc to the next.
"""

from __future__ import annotations

from typing import NamedTuple

from .braid import BraidWord, checked_record, free_reduce_cyclic


class Crossing(NamedTuple):
    """One crossing of a closed braid, with its incident arcs.

    The strand entering at in_left leaves at out_right and vice versa; for
    a positive crossing the left entrant passes over.
    """

    sign: int
    in_left: int
    in_right: int
    out_left: int
    out_right: int


class PlanarDiagram(NamedTuple):
    crossings: tuple[Crossing, ...]
    free_loops: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]


def braid_closure(b: BraidWord) -> PlanarDiagram:
    """Standard closure of ``b`` after cyclic free reduction."""
    letters = free_reduce_cyclic(b.letters)
    n = b.strands
    # last[i]: the index of the last letter at position i, -1 if none
    last = [-1] * n
    for t, g in enumerate(letters):
        if g < 0:
            g = -g
        last[g - 1] = last[g] = t

    # closure arc i enters the first crossing at position i and leaves the
    # last one; every other arc is numbered from n as its crossing makes it.
    # An arc ends where a crossing consumes it, and a free loop is its own
    # successor.
    current = list(range(n))
    succ = list(range(n))
    make = tuple.__new__
    crossings = []
    arcs = n
    for t, g in enumerate(letters):
        if g > 0:
            sign, j, k = 1, g - 1, g
        else:
            sign, j, k = -1, -g - 1, -g
        il = current[j]
        ir = current[k]
        if last[j] == t:
            ol = j
        else:
            ol = current[j] = arcs
            arcs += 1
            succ.append(-1)
        if last[k] == t:
            orr = k
        else:
            orr = current[k] = arcs
            arcs += 1
            succ.append(-1)
        succ[il] = orr
        succ[ir] = ol
        crossings.append(make(Crossing, (sign, il, ir, ol, orr)))
    free = tuple([i for i in range(n) if last[i] < 0])

    # each component starts at its least arc
    seen = [False] * arcs
    comps = []
    for a in range(arcs):
        if seen[a]:
            continue
        cycle = []
        x = a
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = succ[x]
        comps.append(tuple(cycle))
    return PlanarDiagram(tuple(crossings), free, tuple(comps))


def writhe(d: PlanarDiagram) -> int:
    return sum([c[0] for c in d.crossings])


class DTCode(checked_record("DTCode", "pairs")):
    """Dowker-Thistlethwaite pairs: entry i is the signed even partner of
    odd label 2i-1; sign is negative exactly when the even pass is over."""

    __slots__ = ()

    def __new__(cls, pairs: tuple[int, ...]):
        n = len(pairs)
        if n == 0:
            raise ValueError("empty code")
        need = set(range(2, 2 * n + 1, 2))
        got = {abs(e) for e in pairs}
        if got != need:
            raise ValueError(f"entries must cover each of {{2,4,...,{2 * n}}} once")
        return super().__new__(cls, pairs)


def _visit_sequence(d: PlanarDiagram) -> list[tuple[int, bool]]:
    # (crossing index, entered-on-over-strand) along the knot, from arc 0
    enter = {}
    for t, c in enumerate(d.crossings):
        enter[c.in_left] = (t, c.out_right, c.sign > 0)
        enter[c.in_right] = (t, c.out_left, c.sign < 0)
    visits = []
    a = d.components[0][0]
    for _ in range(2 * len(d.crossings)):
        t, a_next, over = enter[a]
        visits.append((t, over))
        a = a_next
    return visits


def _code_of(visits: list[tuple[int, bool]]) -> tuple[int, ...]:
    labels: dict[int, list[tuple[int, bool]]] = {}
    for i, (t, over) in enumerate(visits):
        labels.setdefault(t, []).append((i + 1, over))
    pairs = [0] * (len(visits) // 2)
    for (l1, o1), (l2, o2) in labels.values():
        odd, (even, even_over) = (l1, (l2, o2)) if l1 % 2 else (l2, (l1, o1))
        pairs[(odd - 1) // 2] = -even if even_over else even
    return tuple(pairs)


def dt_code(d: PlanarDiagram) -> DTCode:
    """Canonical DT code: lexicographic minimum over all 2n starting
    passes and both directions, preferring positive entries on ties."""
    n = len(d.crossings)
    if n == 0:
        raise ValueError("DT codes need at least one crossing")
    if len(d.components) != 1:
        raise ValueError(f"DT codes need a knot; diagram has {len(d.components)} components")
    forward = _visit_sequence(d)
    backward = forward[::-1]
    best = None
    for seq in (forward, backward):
        for shift in range(2 * n):
            code = _code_of(seq[shift:] + seq[:shift])
            key = (tuple(abs(e) for e in code), tuple(e < 0 for e in code))
            if best is None or key < best[0]:
                best = (key, code)
    return DTCode(best[1])


def render_dt(code: DTCode, name: str | None = None) -> str:
    body = " ".join(str(e) for e in code.pairs)
    return f"{name}: {body}" if name else body


def parse_dt(text: str) -> DTCode:
    body = text.split(":", 1)[1] if ":" in text else text
    fields = body.split()
    if not fields:
        raise ValueError("empty code")
    try:
        entries = [int(f) for f in fields]
    except ValueError as exc:
        raise ValueError(f"bad DT entry: {exc}") from None
    for e in entries:
        if e == 0 or e % 2:
            raise ValueError(f"DT entries must be signed even integers, got {e}")
    return DTCode(tuple(entries))

