"""Planar diagrams of braid closures: crossings, components, DT codes.

Diagrams are built only from braid words (every knot in scope arrives as a
braid), so planarity is guaranteed by construction and never validated.
The only simplification applied is free reduction of adjacent inverse
letters, including across the closure seam, before the diagram is built;
crossing counts are otherwise those of the word.

Arc identifiers are dense integers.  Arcs 0..n-1 are the closure arcs at
strand positions 1..n; a position never touched by a crossing keeps its
closure arc as a crossing-free loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord, free_reduce_cyclic


@dataclass(frozen=True)
class Crossing:
    """One crossing of a closed braid, with its incident arcs.

    The strand entering at in_left leaves at out_right and vice versa; for
    a positive crossing the left entrant passes over.
    """

    sign: int
    in_left: int
    in_right: int
    out_left: int
    out_right: int


@dataclass(frozen=True)
class PlanarDiagram:
    crossings: tuple[Crossing, ...]
    free_loops: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]


def braid_closure(b: BraidWord) -> PlanarDiagram:
    """Standard closure of ``b`` after cyclic free reduction."""
    letters = free_reduce_cyclic(b.letters)
    n = b.strands
    current = list(range(n))
    nxt = n
    raw: list[list[int]] = []
    for g in letters:
        j = abs(g) - 1
        raw.append([1 if g > 0 else -1, current[j], current[j + 1], nxt, nxt + 1])
        current[j], current[j + 1] = nxt, nxt + 1
        nxt += 2

    # closure: the final top arc at position i is the closure arc i
    alias = {current[i]: i for i in range(n) if current[i] != i}
    used = sorted(
        {alias.get(a, a) for rec in raw for a in rec[1:]} | {i for i in range(n) if current[i] == i}
    )
    renum = {a: k for k, a in enumerate(used)}
    crossings = tuple(
        Crossing(rec[0], *(renum[alias.get(a, a)] for a in rec[1:])) for rec in raw
    )
    free = tuple(renum[i] for i in range(n) if current[i] == i)

    # thread continuation: an arc ends where a crossing consumes it
    succ = {}
    for c in crossings:
        succ[c.in_left] = c.out_right
        succ[c.in_right] = c.out_left
    comps: list[tuple[int, ...]] = [(a,) for a in free]
    seen = set(free)
    for a in range(len(used)):
        if a in seen:
            continue
        cycle = []
        x = a
        while x not in seen:
            seen.add(x)
            cycle.append(x)
            x = succ[x]
        comps.append(tuple(cycle))
    comps.sort(key=min)
    return PlanarDiagram(crossings, free, tuple(comps))


def writhe(d: PlanarDiagram) -> int:
    return sum(c.sign for c in d.crossings)


def linking_matrix(d: PlanarDiagram) -> list[list[int]]:
    """Pairwise linking numbers; zero diagonal.

    Entry (i,j) is half the signed count of crossings between components i
    and j, which is always even in total.
    """
    comp_of = {}
    for k, comp in enumerate(d.components):
        for a in comp:
            comp_of[a] = k
    m = len(d.components)
    twice = [[0] * m for _ in range(m)]
    for c in d.crossings:
        i, j = comp_of[c.in_left], comp_of[c.in_right]
        if i != j:
            twice[i][j] += c.sign
            twice[j][i] += c.sign
    for row in twice:
        for v in row:
            if v % 2:
                raise RuntimeError("inter-component crossing signs must sum evenly")
    return [[v // 2 for v in row] for row in twice]


@dataclass(frozen=True)
class DTCode:
    """Dowker-Thistlethwaite pairs: entry i is the signed even partner of
    odd label 2i-1; sign is negative exactly when the even pass is over."""

    pairs: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.pairs)
        if n == 0:
            raise ValueError("empty code")
        need = set(range(2, 2 * n + 1, 2))
        got = {abs(e) for e in self.pairs}
        if got != need:
            raise ValueError(f"entries must cover each of {{2,4,...,{2 * n}}} once")


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

