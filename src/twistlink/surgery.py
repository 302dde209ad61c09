"""Framed-link surgery presentations and Kirby-move bookkeeping.

A presentation is the algebraic shadow of a framed link: rational (or
infinite) coefficients, a symmetric integer linking matrix, per-component
unknottedness flags, and declared meridian edges (a, b) stating that a is
a meridian of b.  Moves never see an embedded diagram, so unknottedness
is downgraded conservatively whenever a move could knot a component; the
declared meridian structure is what lets the common reductions (Rolfsen
twists along a chain) keep their flags.

A meridian edge (a, b) requires a unknotted with lk(a, b) = +-1 and zero
linking elsewhere, except that a may link components that are themselves
declared meridians of a; that exception is what allows chains, where each
link of the chain carries the next as its meridian.

First homology is the machine-checkable invariant: every move preserves
it, and kirby_reduce fails hard if a step changes it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd

from .poly import INF, Slope, format_slope, is_integral, parse_slope


@dataclass(frozen=True)
class Component:
    name: str
    coefficient: Slope
    unknotted: bool


@dataclass(frozen=True)
class SurgeryPresentation:
    components: tuple[Component, ...]
    linking: tuple[tuple[int, ...], ...]
    meridian_edges: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        for c in self.components:
            _check_name(c.name)
        for row in self.linking:
            _check_linking(row)
        self._check_matrix()
        names, own = _edge_index(self.components, self.meridian_edges)
        for edge in sorted(self.meridian_edges):
            problem = _edge_problem(self.components, self.linking, names, own, edge)
            if problem:
                raise ValueError(f"meridian edge {edge[0]}->{edge[1]}: {problem}")

    def _check_matrix(self) -> None:
        k = len(self.components)
        names = [c.name for c in self.components]
        if len(set(names)) != k:
            raise ValueError("component names must be distinct")
        if len(self.linking) != k or any(len(row) != k for row in self.linking):
            raise ValueError("linking matrix size must match component count")
        # row i's prefix against column i's, both as tuples so list rows work
        for i, (row, col) in enumerate(zip(self.linking, zip(*self.linking))):
            if row[i] != 0:
                raise ValueError("linking diagonal must be zero")
            if tuple(row[:i]) != col[:i]:
                raise ValueError("linking matrix must be symmetric")

    def index(self, name: str) -> int:
        for i, c in enumerate(self.components):
            if c.name == name:
                return i
        raise ValueError(f"no component named {name!r}")

    def component(self, name: str) -> Component:
        return self.components[self.index(name)]

    def lk(self, a: str, b: str) -> int:
        return self.linking[self.index(a)][self.index(b)]


def _check_name(name) -> None:
    """Reject a component name that ``parse_presentation`` could not read back."""
    if not isinstance(name, str):
        raise TypeError(f"component name must be a str, got {type(name).__name__}")
    if name.split() != [name] or "#" in name:
        raise ValueError(f"component name {name!r} must be one word without '#'")
    if name in ("components", "lk", "meridian"):
        raise ValueError(f"component name {name!r} is a keyword of the presentation format")


def _check_linking(values) -> None:
    """Reject a linking value that is not an int; a bool would render as True."""
    for v in values:
        if type(v) is not int:
            raise TypeError(f"linking values must be int, got {type(v).__name__} {v!r}")


def _edge_index(components, edges) -> tuple[dict[str, int], dict[str, set[str]]]:
    """Component index by name, and each component's own meridians."""
    names = {c.name: i for i, c in enumerate(components)}
    own: dict[str, set[str]] = {}
    for a, b in edges:
        own.setdefault(b, set()).add(a)
    return names, own


def _edge_problem(components, linking, names, own, edge) -> str | None:
    a, b = edge
    if a not in names or b not in names:
        return "unknown component"
    if a == b:
        return "component cannot be its own meridian"
    ia = names[a]
    if not components[ia].unknotted:
        return "meridian must be unknotted"
    row = linking[ia]
    if abs(row[names[b]]) != 1:
        return "meridian must link its target exactly once"
    mine = own.get(a, ())
    for j in compress(range(len(row)), row):
        name = components[j].name
        if name != b and name not in mine:
            return f"meridian links stray component {name!r}"
    return None


def _add_linking(entries, names, a: str, b: str, v: int) -> None:
    """Record lk(a, b) = v once per unordered pair; a repeat must agree."""
    for name in (a, b):
        if name not in names:
            raise ValueError(f"no component named {name!r}")
    key = (b, a) if (b, a) in entries else (a, b)
    if entries.setdefault(key, v) != v:
        raise ValueError(f"linking of {key[0]} and {key[1]} given twice with different values")


def presentation(
    components: list[tuple[str, Slope | int | str, bool]],
    linking: dict[tuple[str, str], int] | None = None,
    meridians: list[tuple[str, str]] | None = None,
) -> SurgeryPresentation:
    """Convenience builder taking sparse linking entries."""
    comps = tuple(
        Component(name, coeff if coeff is INF else parse_slope(str(coeff)), bool(unk))
        for name, coeff, unk in components
    )
    idx = {c.name: i for i, c in enumerate(comps)}
    entries: dict[tuple[str, str], int] = {}
    for (a, b), v in (linking or {}).items():
        _add_linking(entries, idx, a, b, v)
    k = len(comps)
    mat = [[0] * k for _ in range(k)]
    for (a, b), v in entries.items():
        mat[idx[a]][idx[b]] = v
        mat[idx[b]][idx[a]] = v
    return SurgeryPresentation(
        comps, tuple(tuple(row) for row in mat), frozenset(meridians or ())
    )


def _prune_edges(components, linking, edges) -> frozenset[tuple[str, str]]:
    """Largest subset of edges that are all valid against that subset.

    Dropping an edge (a, b) takes a from b's own meridians, which can only
    invalidate edges out of b, so only those are checked again.
    """
    names, own = _edge_index(components, edges)
    kept = set(edges)
    todo = edges
    while todo:
        bad = {e for e in todo if _edge_problem(components, linking, names, own, e)}
        kept -= bad
        for a, b in bad:
            own[b].discard(a)
        targets = {b for _, b in bad}
        todo = {e for e in kept if e[0] in targets}
    return frozenset(kept)


def _rebuild(components, linking, edges) -> SurgeryPresentation:
    # _prune_edges has checked every kept edge, so only the matrix is
    # checked here
    mat = tuple(tuple(row) for row in linking)
    comps = tuple(components)
    p = object.__new__(SurgeryPresentation)
    object.__setattr__(p, "components", comps)
    object.__setattr__(p, "linking", mat)
    object.__setattr__(p, "meridian_edges", _prune_edges(comps, mat, edges))
    p._check_matrix()
    return p


def blow_down(p: SurgeryPresentation, name: str) -> SurgeryPresentation:
    """Delete an unknotted +-1-framed component, twisting its neighbors.

    Neighbor i picks up coefficient -eps*lk(i)^2 and pairwise linking
    -eps*lk(i)*lk(j).  Neighbors lose their unknotted flag unless they sit
    on a meridian edge with the deleted component (a Rolfsen twist on a
    single strand cannot knot it).  A meridian of the deleted component is
    re-aimed at the deletion target when it is the only one.
    """
    ci = p.index(name)
    c = p.components[ci]
    if not c.unknotted:
        raise ValueError(f"blow-down needs an unknotted component; {name!r} is not known to be")
    if not is_integral(c.coefficient) or abs(c.coefficient) != 1:
        raise ValueError(f"blow-down needs coefficient +1 or -1, got {format_slope(c.coefficient)}")
    eps = int(c.coefficient)
    lk_c = [p.linking[i][ci] for i in range(len(p.components))]
    for i, comp in enumerate(p.components):
        if i == ci or lk_c[i] == 0 or comp.coefficient is INF:
            continue
        if not is_integral(comp.coefficient):
            raise ValueError(
                f"cannot blow down through {comp.name!r}: rational coefficient "
                f"{format_slope(comp.coefficient)} with nonzero linking"
            )

    keep = [i for i in range(len(p.components)) if i != ci]
    exempt = {
        other
        for a, b in p.meridian_edges
        for other in ((a,) if b == name else (b,) if a == name else ())
    }
    comps = []
    for i in keep:
        comp = p.components[i]
        coeff = comp.coefficient
        if lk_c[i] and coeff is not INF:
            coeff = coeff - eps * lk_c[i] ** 2
        unknotted = comp.unknotted and (lk_c[i] == 0 or comp.name in exempt)
        comps.append(replace(comp, coefficient=coeff, unknotted=unknotted))
    mat = [
        [p.linking[i][j] - eps * lk_c[i] * lk_c[j] if i != j else 0 for j in keep] for i in keep
    ]

    edges = {e for e in p.meridian_edges if name not in e}
    sources = [a for a, b in p.meridian_edges if b == name]
    targets = [b for a, b in p.meridian_edges if a == name]
    if len(sources) == 1 and targets:
        edges.add((sources[0], targets[0]))
    return _rebuild(comps, mat, edges)


def blow_up(
    p: SurgeryPresentation, eps: int, links_to: list[int], name: str | None = None
) -> SurgeryPresentation:
    """Add an eps-framed unknot with the given linking vector, twisting
    the components it passes through; exact inverse of blow_down up to
    the conservative unknottedness downgrade."""
    if eps not in (1, -1):
        raise ValueError("blow-up framing must be +1 or -1")
    if len(links_to) != len(p.components):
        raise ValueError("linking vector length must match component count")
    _check_linking(links_to)
    if name is None:
        taken = {c.name for c in p.components}
        k = 1
        while f"u{k}" in taken:
            k += 1
        name = f"u{k}"
    else:
        _check_name(name)
        if any(c.name == name for c in p.components):
            raise ValueError(f"component name {name!r} already in use")
    comps = []
    for comp, v in zip(p.components, links_to):
        coeff = comp.coefficient
        if v and coeff is not INF:
            coeff = coeff + eps * v * v
        comps.append(replace(comp, coefficient=coeff))
    comps.append(Component(name, Fraction(eps), True))
    k = len(p.components)
    mat = [
        [p.linking[i][j] + eps * links_to[i] * links_to[j] if i != j else 0 for j in range(k)]
        + [links_to[i]]
        for i in range(k)
    ]
    mat.append(list(links_to) + [0])
    return _rebuild(comps, mat, p.meridian_edges)


def slam_dunk(p: SurgeryPresentation, meridian: str, target: str) -> SurgeryPresentation:
    """Absorb a meridian with coefficient r into its target: n -> n - 1/r."""
    if (meridian, target) not in p.meridian_edges:
        raise ValueError(f"no meridian edge {meridian}->{target}")
    mi, ti = p.index(meridian), p.index(target)
    own = [a for a, b in p.meridian_edges if b == meridian]
    if own:
        raise ValueError(
            f"{meridian!r} has its own meridian {own[0]!r}; slam-dunk from the chain tail first"
        )
    r = p.components[mi].coefficient
    n = p.components[ti].coefficient
    if not is_integral(n):
        raise ValueError(f"slam-dunk target must have an integer coefficient, got {format_slope(n)}")
    if r is INF:
        coeff = n
    elif r == 0:
        raise ValueError("meridian coefficient 0 cannot be slam-dunked")
    else:
        coeff = n - 1 / r
    keep = [i for i in range(len(p.components)) if i != mi]
    comps = [
        replace(p.components[i], coefficient=coeff) if i == ti else p.components[i] for i in keep
    ]
    mat = [[p.linking[i][j] for j in keep] for i in keep]
    edges = {e for e in p.meridian_edges if meridian not in e}
    return _rebuild(comps, mat, edges)


def handle_slide(p: SurgeryPresentation, i_name: str, j_name: str, sign: int) -> SurgeryPresentation:
    """Slide component i over j (second Kirby move), both integer framed."""
    if sign not in (1, -1):
        raise ValueError("slide sign must be +1 or -1")
    i, j = p.index(i_name), p.index(j_name)
    if i == j:
        raise ValueError("cannot slide a component over itself")
    ni, nj = p.components[i].coefficient, p.components[j].coefficient
    if not (is_integral(ni) and is_integral(nj)):
        raise ValueError("handle slides need integer coefficients on both components")
    k = len(p.components)
    mat = [list(row) for row in p.linking]
    for x in range(k):
        if x not in (i, j):
            mat[i][x] += sign * p.linking[j][x]
            mat[x][i] = mat[i][x]
    mat[i][j] += sign * int(nj)
    mat[j][i] = mat[i][j]
    coeff = ni + nj + 2 * sign * p.linking[i][j]
    comps = [
        replace(c, coefficient=coeff, unknotted=False) if x == i else c
        for x, c in enumerate(p.components)
    ]
    edges = {e for e in p.meridian_edges if e[0] != i_name}
    return _rebuild(comps, mat, edges)


@dataclass(frozen=True)
class ContinuedFraction:
    """Negative (minus-sign) continued fraction a1 - 1/(a2 - 1/(...))."""

    terms: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("continued fraction needs at least one term")
        if any(a < 2 for a in self.terms[1:]):
            raise ValueError("canonical form needs every term after the first to be >= 2")


def cfrac_expand(x: Slope) -> ContinuedFraction:
    """Canonical negative expansion by ceiling recursion."""
    if x is INF:
        raise ValueError("cannot expand the infinite slope")
    terms = []
    while True:
        a = -((-x.numerator) // x.denominator)  # ceil
        terms.append(a)
        rest = a - x
        if rest == 0:
            return ContinuedFraction(tuple(terms))
        x = 1 / rest


def cfrac_eval(cf: ContinuedFraction) -> Fraction:
    val = Fraction(cf.terms[-1])
    for a in reversed(cf.terms[:-1]):
        val = a - 1 / val
    return val


def rational_to_chain(p: SurgeryPresentation, name: str) -> SurgeryPresentation:
    """Replace a rational coefficient by its integer chain.

    The component keeps the leading term; fresh meridian components carry
    the rest, each a meridian of the one before.  Slam-dunking the chain
    tail-first restores the input exactly.
    """
    ci = p.index(name)
    coeff = p.components[ci].coefficient
    if coeff is INF:
        raise ValueError("cannot expand the infinite slope into a chain")
    if is_integral(coeff):
        raise ValueError(f"coefficient {coeff} is already an integer")
    terms = cfrac_expand(coeff).terms
    fresh = [f"{name}.{i}" for i in range(2, len(terms) + 1)]
    taken = {c.name for c in p.components}
    for f in fresh:
        if f in taken:
            raise ValueError(f"chain name {f!r} already in use")
    comps = list(p.components)
    comps[ci] = replace(comps[ci], coefficient=Fraction(terms[0]))
    comps += [Component(f, Fraction(a), True) for f, a in zip(fresh, terms[1:])]
    k = len(p.components)
    total = k + len(fresh)
    mat = [[0] * total for _ in range(total)]
    for i in range(k):
        for j in range(k):
            mat[i][j] = p.linking[i][j]
    chain = [ci] + list(range(k, total))
    for a, b in zip(chain, chain[1:]):
        mat[a][b] = mat[b][a] = 1
    edges = set(p.meridian_edges)
    prev = name
    for f in fresh:
        edges.add((f, prev))
        prev = f
    return _rebuild(comps, mat, edges)


@dataclass(frozen=True)
class Homology:
    """H1 as invariant factors (each > 1) plus free rank."""

    torsion: tuple[int, ...]
    free_rank: int

    def render(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts += [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "trivial"


def _subtract(m, cols, written, i, c, vector) -> None:
    """Row i -= c * vector in a sparse matrix, keeping the column index.

    c and every value of vector are nonzero, so an entry that comes out
    zero was already stored.
    """
    row = m[i]
    for j, v in vector.items():
        w = row.get(j, 0) - c * v
        if w:
            if j not in row:
                cols[j].add(i)
            row[j] = w
            written.add((i, j))
        else:
            del row[j]
            cols[j].discard(i)


def _smith_diagonal(rows: list[list[int]]) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    First diagonalize by sparse elimination: rows are {col: value} dicts
    with a col -> rows index, and each pivot is a least-|value| entry,
    ties going to the fewest nonzeros in its row and column.  Reducing
    the pivot's column and row modulo the pivot leaves remainders only in
    that row and column, so the next pivot is sought there until both are
    clear; then |p| is recorded and they are dropped.  Then make the
    diagonal a divisor chain, since diag(a, b) has Smith form diag(gcd, lcm).
    """
    m = {}
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        if any(row):
            m[i] = {j: row[j] for j in compress(range(len(row)), row)}
            for j in m[i]:
                cols.setdefault(j, set()).add(i)
    # candidate pivots (|value|, row + column nonzeros, i, j), pushed after
    # each pivot for the entries it wrote; stale items are skipped
    heap = [(abs(v), len(row) + len(cols[j]), i, j) for i, row in m.items() for j, v in row.items()]
    heapify(heap)
    diag = []
    while heap:
        size, _, pi, pj = heappop(heap)
        prow = m.get(pi)
        if prow is None or abs(prow.get(pj, 0)) != size:
            continue
        written = set()
        while True:
            p = prow[pj]
            for i in cols[pj] - {pi}:
                q = m[i][pj] // p
                if q:
                    _subtract(m, cols, written, i, q, prow)
            quotients = {j: q for j, v in prow.items() if j != pj and (q := v // p)}
            if quotients:
                for i in list(cols[pj]):
                    _subtract(m, cols, written, i, m[i][pj], quotients)
            if len(prow) == 1 and len(cols[pj]) == 1:
                break
            # remainders are left only in the pivot's row and column
            pi, pj = min(
                [(abs(v), len(prow) + len(cols[j]), pi, j) for j, v in prow.items() if j != pj]
                + [(abs(m[i][pj]), len(m[i]) + len(cols[pj]), i, pj) for i in cols[pj] if i != pi]
            )[2:]
            prow = m[pi]
        del m[pi], cols[pj]
        diag.append(abs(p))
        for i, j in written:
            v = m.get(i, {}).get(j)
            if v:
                heappush(heap, (abs(v), len(m[i]) + len(cols[j]), i, j))
    torsion = [d for d in diag if d > 1]  # a 1 already divides every entry
    for i in range(len(torsion)):
        for j in range(i + 1, len(torsion)):
            g = gcd(torsion[i], torsion[j])
            torsion[i], torsion[j] = g, torsion[i] // g * torsion[j]
    return [1] * (len(diag) - len(torsion)) + torsion


def h1(p: SurgeryPresentation) -> Homology:
    """First homology of the surgered manifold via Smith normal form.

    Row i of the presentation matrix is q_i * linking(i, .) with diagonal
    p_i, for coefficient p_i/q_i; components with infinite coefficient are
    erased first.
    """
    keep = [i for i, c in enumerate(p.components) if c.coefficient is not INF]
    if not keep:
        return Homology((), 0)
    position = dict(zip(keep, range(len(keep))))
    rows = []
    for i in keep:
        coeff = p.components[i].coefficient
        q = coeff.denominator
        linking = p.linking[i]
        row = [0] * len(keep)
        for j in compress(range(len(linking)), linking):
            if j in position:
                row[position[j]] = q * linking[j]
        row[position[i]] = coeff.numerator
        rows.append(row)
    diag = _smith_diagonal(rows)
    return Homology(tuple(d for d in diag if d > 1), len(keep) - len(diag))


def apply_move(p: SurgeryPresentation, move: tuple) -> SurgeryPresentation:
    kind = move[0]
    if kind == "blowdown":
        return blow_down(p, move[1])
    if kind == "blowup":
        return blow_up(p, move[1], list(move[2]))
    if kind == "slamdunk":
        return slam_dunk(p, move[1], move[2])
    if kind == "slide":
        return handle_slide(p, move[1], move[2], move[3])
    if kind == "chain":
        return rational_to_chain(p, move[1])
    raise ValueError(f"unknown move {kind!r}")


def render_move(move: tuple) -> str:
    if move[0] == "blowup":
        return f"blowup {move[1]:+d} " + " ".join(str(v) for v in move[2])
    if move[0] == "slide":
        return f"slide {move[1]} {move[2]} {'+' if move[3] > 0 else '-'}"
    return " ".join(str(f) for f in move)


@dataclass(frozen=True)
class TraceStep:
    move: str
    components_before: int
    components_after: int
    h1: Homology
    result: SurgeryPresentation
    note: str = ""


@dataclass(frozen=True)
class KirbyTrace:
    initial_h1: Homology
    steps: tuple[TraceStep, ...]


def kirby_reduce(
    p: SurgeryPresentation, script: list[tuple]
) -> tuple[SurgeryPresentation, KirbyTrace]:
    """Apply a move script, checking H1 after every step.

    A move that fails its own contract is reported with its step index;
    a move that changes H1 is an internal error and raises immediately.
    """
    invariant = h1(p)
    steps = []
    current = p
    for k, move in enumerate(script, start=1):
        note = ""
        try:
            if move[0] == "blowdown":
                ci = current.index(move[1])
                if any(abs(row[ci]) >= 2 for row in current.linking):
                    note = (
                        "a strand passes the deleted unknot more than once; "
                        "writhe not tracked"
                    )
            after = apply_move(current, move)
        except ValueError as exc:
            raise ValueError(f"step {k} ({render_move(move)}): {exc}") from exc
        step_h1 = h1(after)
        if step_h1 != invariant:
            raise RuntimeError(
                f"step {k} ({render_move(move)}) changed H1 from "
                f"{invariant.render()} to {step_h1.render()}; this is a bug"
            )
        steps.append(
            TraceStep(
                render_move(move),
                len(current.components),
                len(after.components),
                step_h1,
                after,
                note,
            )
        )
        current = after
    return current, KirbyTrace(invariant, tuple(steps))


def render_presentation(p: SurgeryPresentation) -> str:
    lines = [f"components {len(p.components)}"]
    for c in p.components:
        lines.append(f"{c.name} {format_slope(c.coefficient)} {1 if c.unknotted else 0}")
    for i in range(len(p.components)):
        for j in range(i + 1, len(p.components)):
            if p.linking[i][j]:
                lines.append(
                    f"lk {p.components[i].name} {p.components[j].name} {p.linking[i][j]}"
                )
    for a, b in sorted(p.meridian_edges):
        lines.append(f"meridian {a} {b}")
    return "\n".join(lines)


def parse_presentation(text: str) -> SurgeryPresentation:
    comps: list[tuple[str, object, bool]] = []
    lk_lines: list[tuple[int, str, str, int]] = []
    meridians: list[tuple[str, str]] = []
    want = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            if fields[0] == "components":
                want = int(fields[1])
            elif fields[0] == "lk":
                lk_lines.append((lineno, fields[1], fields[2], int(fields[3])))
            elif fields[0] == "meridian":
                meridians.append((fields[1], fields[2]))
            else:
                name, coeff, unk = fields
                if unk not in ("0", "1"):
                    raise ValueError(f"unknotted flag must be 0 or 1, got {unk!r}")
                comps.append((name, parse_slope(coeff), unk == "1"))
        except (IndexError, ValueError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if want is None:
        raise ValueError("missing 'components' header")
    if want != len(comps):
        raise ValueError(f"header says {want} components, found {len(comps)}")
    names = {name for name, _, _ in comps}
    linking: dict[tuple[str, str], int] = {}
    for lineno, a, b, v in lk_lines:
        try:
            _add_linking(linking, names, a, b, v)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return presentation(comps, linking, meridians)


def parse_script(text: str) -> list[tuple]:
    moves: list[tuple] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            kind = fields[0]
            if kind == "blowdown" and len(fields) == 2:
                moves.append(("blowdown", fields[1]))
            elif kind == "blowup" and len(fields) >= 2:
                moves.append(("blowup", int(fields[1]), tuple(int(v) for v in fields[2:])))
            elif kind == "slamdunk" and len(fields) == 3:
                moves.append(("slamdunk", fields[1], fields[2]))
            elif kind == "slide" and len(fields) == 4 and fields[3] in ("+", "-"):
                moves.append(("slide", fields[1], fields[2], 1 if fields[3] == "+" else -1))
            elif kind == "chain" and len(fields) == 2:
                moves.append(("chain", fields[1]))
            else:
                raise ValueError(f"unrecognized move {line!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return moves
