"""Framed-link surgery presentations and Kirby-move bookkeeping.

A presentation is the algebraic shadow of a framed link: rational (or
infinite) coefficients, a symmetric integer linking matrix, per-component
unknottedness flags, and declared meridian edges (a, b) stating that a is
a meridian of b.  Moves never see an embedded diagram, so unknottedness
is downgraded conservatively whenever a move could knot a component; the
declared meridian structure is what lets the common reductions (Rolfsen
twists along a chain) keep their flags.

The linking matrix is kept sparse: ``linking[i]`` is the tuple of
(j, lk(i, j)) pairs of component i's nonzero linking numbers, columns
ascending, so lk(a, b) is the value paired with b's index in a's row,
or 0 if there is none.  The rows are symmetric and store no zero and no
diagonal pair.  A move rewrites only the rows it changes; deleting a
component renumbers every column after it, in O(nonzeros).

A meridian edge (a, b) requires a unknotted with lk(a, b) = +-1 and zero
linking elsewhere, except that a may link components that are themselves
declared meridians of a; that exception is what allows chains, where each
link of the chain carries the next as its meridian.

First homology is the machine-checkable invariant: every move preserves
it, and kirby_reduce fails hard if a step changes it.  ``h1`` folds each
declared meridian chain into its head by the chain's continued fraction,
in integers and without calling a move, before its Smith form.

Coefficients are slopes: a ``Fraction`` or the infinite slope ``INF``.
Slopes also meet braids here: ``blow_down_axis`` turns a -1/s framed
axis circle around adjacent strands into s full twists on them.  This is
the only module of the package that imports ``fractions``, which loads
``decimal``, so the commands that read no slope load neither.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import count
from math import gcd
from typing import NamedTuple, Union

from .braid import BraidWord, checked_record, insert_full_twists


class _Infinity:
    """The slope 1/0, used as a surgery coefficient for unfilled components.

    A single instance ``INF`` exists.  It compares unequal to every finite
    value and supports no arithmetic.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "inf"


INF = _Infinity()

# A surgery coefficient: a reduced fraction or the infinite slope.
Slope = Union[Fraction, _Infinity]


def parse_slope(text: str) -> Slope:
    """Parse ``p/q``, a bare integer, or ``inf``."""
    text = text.strip()
    if text == "inf":
        return INF
    num, slash, den = text.partition("/")
    try:
        num, den = int(num), int(den) if slash else 1
    except ValueError:
        raise ValueError(f"bad rational {text!r}: expected an integer, p/q or inf") from None
    if den == 0:
        raise ValueError(f"bad rational {text!r}: zero denominator")
    return Fraction(num, den)


def format_slope(value: Slope) -> str:
    if value is INF:
        return "inf"
    if not isinstance(value, Fraction):
        raise TypeError(f"slope must be a Fraction or INF, got {value!r}")
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def is_integral(value: Slope) -> bool:
    return isinstance(value, Fraction) and value.denominator == 1


class Component(NamedTuple):
    name: str
    coefficient: Slope
    unknotted: bool


class SurgeryPresentation(
    checked_record("SurgeryPresentation", "components linking meridian_edges")
):
    """Components, their linking rows (see above) and meridian edges, checked when built."""

    __slots__ = ()

    def __new__(
        cls,
        components: tuple[Component, ...],
        linking: tuple[tuple[tuple[int, int], ...], ...],
        meridian_edges: frozenset[tuple[str, str]],
    ):
        linking = tuple(tuple(map(tuple, row)) for row in linking)
        self = super().__new__(cls, components, linking, meridian_edges)
        for c in components:
            _check_name(c.name)
        _check_linking(x for row in linking for pair in row for x in pair)
        if len({c.name for c in components}) != len(components):
            raise ValueError("component names must be distinct")
        self._check_matrix(range(len(components)))
        names = {c.name: i for i, c in enumerate(components)}
        own = _own_meridians(meridian_edges, names)
        for edge in sorted(meridian_edges):
            problem = _edge_problem(components, linking, names, own, edge)
            if problem:
                raise ValueError(f"meridian edge {edge[0]}->{edge[1]}: {problem}")
        return self

    def _check_matrix(self, rows) -> None:
        """Check the given rows' pairs, rows ascending, then each pair's mirror.

        A row's columns must be in range and ascend, with no zero and no
        diagonal pair; a pair (j, v) of row i needs (i, v) in row j.
        """
        linking, k = self.linking, len(self.components)
        if len(linking) != k:
            raise ValueError("linking matrix size must match component count")
        rows = sorted(rows)
        for i in rows:
            last = -1
            for j, v in linking[i]:
                if not 0 <= j < k:
                    raise ValueError("linking matrix size must match component count")
                if j <= last:
                    raise ValueError("linking columns must ascend")
                if not v:
                    raise ValueError("linking rows must store no zero")
                if j == i:
                    raise ValueError("linking diagonal must be zero")
                last = j
        for i in rows:
            for j, v in linking[i]:
                row = linking[j]
                at = bisect_left(row, (i,))
                if row[at : at + 1] != ((i, v),):
                    raise ValueError("linking matrix must be symmetric")

    def index(self, name: str) -> int:
        for i, c in enumerate(self.components):
            if c.name == name:
                return i
        raise ValueError(f"no component named {name!r}")

    def component(self, name: str) -> Component:
        return self.components[self.index(name)]

    def lk(self, a: str, b: str) -> int:
        return dict(self.linking[self.index(a)]).get(self.index(b), 0)


def _check_name(name) -> None:
    """Reject a component name that ``parse_presentation`` could not read back."""
    if not isinstance(name, str):
        raise TypeError(f"component name must be a str, got {type(name).__name__}")
    if name.split() != [name] or "#" in name:
        raise ValueError(f"component name {name!r} must be one word without '#'")
    if name in ("components", "lk", "meridian"):
        raise ValueError(f"component name {name!r} is a keyword of the presentation format")


def _check_linking(values) -> None:
    """Reject a linking value or column that is not an int; a bool would render as True."""
    for v in values:
        if type(v) is not int:
            raise TypeError(f"linking values must be int, got {type(v).__name__} {v!r}")


def _own_meridians(edges, targets) -> dict[str, set[str]]:
    """The meridians each of ``targets`` has among ``edges``, if it has any."""
    own: dict[str, set[str]] = {}
    for a, b in edges:
        if b in targets:
            own.setdefault(b, set()).add(a)
    return own


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
    ib = names[b]
    if (ib, 1) not in row and (ib, -1) not in row:
        return "meridian must link its target exactly once"
    mine = own.get(a, ())
    for j, _ in row:
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
    """Convenience builder taking linking entries by name; a 0 entry stores nothing."""
    comps = tuple(
        Component(name, coeff if coeff is INF else parse_slope(str(coeff)), bool(unk))
        for name, coeff, unk in components
    )
    idx = {c.name: i for i, c in enumerate(comps)}
    entries: dict[tuple[str, str], int] = {}
    for (a, b), v in (linking or {}).items():
        _add_linking(entries, idx, a, b, v)
    _check_linking(entries.values())
    rows: list[list[tuple[int, int]]] = [[] for _ in comps]
    for (a, b), v in entries.items():
        for i, j in {(idx[a], idx[b]), (idx[b], idx[a])} if v else ():
            rows[i].append((j, v))
    return SurgeryPresentation(comps, map(sorted, rows), frozenset(meridians or ()))


def _drop_column(rows, c: int) -> list[tuple[tuple[int, int], ...]]:
    """``rows`` without column c, each later column one lower."""
    out = []
    for row in rows:
        if not row or row[-1][0] < c:
            out.append(row)
        elif row[0][0] > c:
            out.append(tuple([(j - 1, v) for j, v in row]))
        else:
            at = bisect_left(row, (c,))
            rest = row[at + 1 :] if row[at][0] == c else row[at:]
            out.append(row[:at] + tuple([(j - 1, v) for j, v in rest]))
    return out


def _merged(row, changes) -> tuple[tuple[int, int], ...]:
    """The pairs of ``row`` with those of ``changes`` set over them; 0 leaves no pair."""
    return tuple(sorted((j, v) for j, v in {**dict(row), **dict(changes)}.items() if v))


def _add_outer(rows, support, scale: int) -> None:
    """lk(i, j) += scale * v * w in ``rows`` for each two pairs (i, v), (j, w) of ``support``."""
    for i, v in support:
        row = dict(rows[i])
        rows[i] = _merged(row, [(j, row.get(j, 0) + scale * v * w) for j, w in support if j != i])


def _prune_edges(components, linking, edges, changed) -> frozenset[tuple[str, str]]:
    """Largest subset of edges that are all valid against that subset.

    Every edge out of a component not in ``changed`` must be valid already
    (see ``_rebuild``), so the edges out of ``changed`` are checked first.
    Dropping an edge (a, b) takes a from b's own meridians, which can only
    invalidate edges out of b, so only those are checked next, until no
    edge drops.  An edge (a, b) reads only a's own meridians, so each
    round finds the own meridians of the components it checks, no others.
    """
    names = {c.name: i for i, c in enumerate(components)}
    kept = set(edges)
    while changed:
        own = _own_meridians(kept, changed)
        bad = {
            e
            for e in kept
            if e[0] in changed and _edge_problem(components, linking, names, own, e)
        }
        kept -= bad
        changed = {b for _, b in bad}
    return frozenset(kept)


def _rebuild(components, linking, edges, changed) -> SurgeryPresentation:
    """The presentation a move built, checked only where the move changed it.

    ``changed`` names each component whose linking row or unknotted flag
    the move changed, and the target of each meridian edge the move
    dropped.  Only their rows are checked, each pair against its mirror,
    and only the edges out of them, with the cascade of ``_prune_edges``;
    every new edge must leave one of them.  That is enough because an edge
    (a, b) depends only on a's flag, a's row and a's own meridians, and a
    row that lost only the pairs of deleted components lost at most stray
    links.  So a slam-dunk, whose meridian links nothing but its target,
    names only the target, though every row has its columns renumbered.
    """
    mat = tuple(map(tuple, linking))
    comps = tuple(components)
    p = tuple.__new__(SurgeryPresentation, (comps, mat, _prune_edges(comps, mat, edges, changed)))
    p._check_matrix([i for i, c in enumerate(comps) if c.name in changed])
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
    lk_c = p.linking[ci]
    sources = [a for a, b in p.meridian_edges if b == name]
    targets = [b for a, b in p.meridian_edges if a == name]
    exempt = {*sources, *targets}
    comps = list(p.components)
    for i, v in lk_c:
        comp = comps[i]
        coeff = comp.coefficient
        if coeff is not INF:
            if not is_integral(coeff):
                raise ValueError(
                    f"cannot blow down through {comp.name!r}: rational coefficient "
                    f"{format_slope(coeff)} with nonzero linking"
                )
            coeff -= eps * v * v
        comps[i] = comp._replace(coefficient=coeff, unknotted=comp.unknotted and comp.name in exempt)
    del comps[ci]
    rows = list(p.linking)
    _add_outer(rows, lk_c, -eps)
    del rows[ci]

    edges = {e for e in p.meridian_edges if name not in e}
    if len(sources) == 1 and targets:
        edges.add((sources[0], targets[0]))
    # the neighbors hold every changed row and flag; a re-aimed edge and
    # each dropped edge's target are among them, since each links c
    changed = {p.components[i].name for i, _ in lk_c}
    return _rebuild(comps, _drop_column(rows, ci), edges, changed)


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
        name = next(f"u{k}" for k in count(1) if f"u{k}" not in taken)
    else:
        _check_name(name)
        if any(c.name == name for c in p.components):
            raise ValueError(f"component name {name!r} already in use")
    support = [(i, v) for i, v in enumerate(links_to) if v]
    comps = list(p.components)
    for i, v in support:
        comp = comps[i]
        if comp.coefficient is not INF:
            comps[i] = comp._replace(coefficient=comp.coefficient + eps * v * v)
    comps.append(Component(name, Fraction(eps), True))
    k = len(p.components)
    rows = list(p.linking)
    _add_outer(rows, support, eps)
    for i, v in support:
        rows[i] += ((k, v),)
    rows.append(tuple(support))
    changed = {comps[i].name for i, _ in support}
    changed.add(name)
    return _rebuild(comps, rows, p.meridian_edges, changed)


def blow_down_axis(b: BraidWord, first: int, width: int, coeff: Slope) -> BraidWord:
    """Twists produced by blowing down a -1/s framed axis circle.

    An unknotted surgery circle with coefficient -1/s around ``width``
    adjacent strands, when blown down, gives those strands s full twists.
    The coefficient must therefore be a nonzero fraction with numerator
    +-1; the emitted word is letter-for-letter the output of
    insert_full_twists with s = -1/coeff.
    """
    if coeff is INF or not isinstance(coeff, Fraction):
        raise ValueError("axis coefficient must be a finite rational")
    if coeff == 0 or abs(coeff.numerator) != 1:
        raise ValueError(
            f"axis coefficient must be -1/s for integer s, got {format_slope(coeff)}"
        )
    s = -coeff.denominator * coeff.numerator  # -1/coeff, exactly
    return insert_full_twists(b, first, width, s)


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
    comps = list(p.components)
    comps[ti] = comps[ti]._replace(coefficient=coeff)
    del comps[mi]
    rows = list(p.linking)
    del rows[mi]
    # the meridian links only its target, and (meridian, target) is its
    # only edge, so only the target's row changes
    edges = {e for e in p.meridian_edges if meridian not in e}
    return _rebuild(comps, _drop_column(rows, mi), edges, {target})


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
    lk_i = dict(p.linking[i])
    new = [(x, lk_i.get(x, 0) + sign * v) for x, v in p.linking[j] if x != i]
    new.append((j, lk_i.get(j, 0) + sign * int(nj)))
    rows = list(p.linking)
    rows[i] = _merged(lk_i, new)
    for x, v in new:
        rows[x] = _merged(rows[x], [(i, v)])
    coeff = ni + nj + 2 * sign * lk_i.get(j, 0)
    comps = list(p.components)
    comps[i] = comps[i]._replace(coefficient=coeff, unknotted=False)
    edges = {e for e in p.meridian_edges if e[0] != i_name}
    # row i changes where row j is nonzero, and so do those rows and row j;
    # i's edges all go, and each of their targets loses a meridian
    changed = {p.components[x].name for x, _ in p.linking[j]}
    changed |= {i_name, j_name}
    changed |= {b for a, b in p.meridian_edges if a == i_name}
    return _rebuild(comps, rows, edges, changed)


class ContinuedFraction(checked_record("ContinuedFraction", "terms")):
    """Negative (minus-sign) continued fraction a1 - 1/(a2 - 1/(...))."""

    __slots__ = ()

    def __new__(cls, terms: tuple[int, ...]):
        if not terms:
            raise ValueError("continued fraction needs at least one term")
        if any(a < 2 for a in terms[1:]):
            raise ValueError("canonical form needs every term after the first to be >= 2")
        return super().__new__(cls, terms)


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
    comps[ci] = comps[ci]._replace(coefficient=Fraction(terms[0]))
    comps += [Component(f, Fraction(a), True) for f, a in zip(fresh, terms[1:])]
    # each link of the chain links the one before it and the one after
    k = len(p.components)
    chain = [ci, *range(k, k + len(fresh)), None]
    rows = list(p.linking)
    rows[ci] += ((k, 1),)
    for before, after in zip(chain, chain[2:]):
        rows.append(((before, 1), (after, 1)) if after is not None else ((before, 1),))
    edges = p.meridian_edges | set(zip(fresh, [name, *fresh]))
    return _rebuild(comps, rows, edges, {name, *fresh})


class Homology(NamedTuple):
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


def _subtract(m, cols, i, c, vector) -> list[int]:
    """Row i -= c * vector; return the columns where it wrote a new +-1.

    ``m`` and ``cols`` are ``_smith_diagonal``'s sparse rows and column
    index, kept in step.  c and every value of vector are nonzero, so an
    entry that comes out zero was already stored.  A row that comes out
    empty is dropped from ``m``, so every row left there has a pivot.
    """
    row = m[i]
    units = []
    for j, v in vector.items():
        w = row.get(j, 0) - c * v
        if w:
            if j not in row:
                cols[j].add(i)
            row[j] = w
            if w == 1 or w == -1:
                units.append(j)
        else:
            del row[j]
            cols[j].discard(i)
    if not row:
        del m[i]
    return units


def _clear_unit_pivots(m, cols) -> int:
    """Pivot on +-1 entries until none is left; return how many were used.

    ``m`` and ``cols`` are ``_smith_diagonal``'s sparse rows and column
    index, changed in place.  A heap holds only the +-1 entries, keyed by
    their fill: the nonzeros in their row plus those in their column.  A
    pivot p at (pi, pj) is dropped with its row and column, and
    ``_subtract`` takes m[i][pj] * p times the rest of its row from each
    other row i of the column.  That is its column pass; its row pass
    would clear the rest of its row without touching any other row.  The
    +-1 entries each subtraction wrote are pushed, and an item whose entry
    is gone or no longer +-1 is skipped.
    """
    units = [
        (len(row) + len(cols[j]), i, j)
        for i, row in m.items()
        for j, v in row.items()
        if v == 1 or v == -1
    ]
    heapify(units)
    count = 0
    while units:
        _, pi, pj = heappop(units)
        prow = m.get(pi)
        p = prow and prow.get(pj)
        if p != 1 and p != -1:
            continue
        del m[pi], prow[pj]
        column = cols.pop(pj)
        column.discard(pi)
        for j in prow:
            cols[j].discard(pi)
        for i in column:
            q = m[i].pop(pj) * p
            for j in _subtract(m, cols, i, q, prow):
                heappush(units, (len(m[i]) + len(cols[j]), i, j))
        count += 1
    return count


def _smith_diagonal(rows: list[dict[int, int]]) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    Each row is a ``{column: value}`` dict that holds nonzero values only;
    the rows are not changed.  Elimination works on copies of the rows
    with a col -> rows index, in two phases that make every row update
    through ``_subtract``.

    First the +-1 pivots, least fill first (``_clear_unit_pivots``): each
    clears its column, is dropped with its row and adds a 1 to the
    diagonal, until no +-1 entry is left.  Dumas, Saunders and Villard
    (J. Symb. Comput. 32, 2001) also begin sparse Smith forms with these
    pivots.  On a Kirby presentation this leaves a small core.

    Then a Euclid loop diagonalizes the core.  Each round starts
    from a row with the fewest nonzeros and its least-|value| entry, ties
    going to the column with the fewest nonzeros.  The pivot p reduces its
    column and row by nearest-integer quotients, the least-remainder
    variant of Euclid's algorithm, which by Kronecker's theorem takes no
    more steps than any other (Knuth, TAOCP vol. 2, 4.5.3).  That leaves
    remainders only in p's row and column, each at most |p| / 2, and the
    next pivot is the least of them until both are clear; then |p| is
    recorded and they are dropped.  So each pivot of a run is at most half
    the one before it, and a run ends within log2 |p| + 1 rounds.  A +-1
    that a remainder makes takes the same path, clearing its column and
    row in one round.  Last the diagonal is made a divisor chain, since
    diag(a, b) has Smith form diag(gcd, lcm).
    """
    m = {}
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        if row:
            m[i] = dict(row)
            for j in row:
                cols.setdefault(j, set()).add(i)
    ones = _clear_unit_pivots(m, cols)
    diag = []
    while m:
        pi = min(m, key=lambda i: len(m[i]))
        prow = m[pi]
        pj = min(prow, key=lambda j: (abs(prow[j]), len(cols[j])))
        while True:
            p = prow[pj]
            size = abs(p)
            column = cols[pj]
            # nearest-integer quotients, written inline because a helper
            # call per quotient costs more: each |remainder| <= |p| / 2
            for i in list(column):
                if i != pi:
                    q, r = divmod(m[i][pj], p)
                    if 2 * abs(r) > size:
                        q += 1
                    if q:
                        _subtract(m, cols, i, q, prow)
            quotients = {}
            for j, v in prow.items():
                if j != pj:
                    q, r = divmod(v, p)
                    if 2 * abs(r) > size:
                        q += 1
                    if q:
                        quotients[j] = q
            if quotients:
                for i in column:
                    _subtract(m, cols, i, m[i][pj], quotients)
            if len(prow) == 1 and len(column) == 1:
                break
            # remainders are left only in the pivot's row and column
            best = None
            for j, v in prow.items():
                if j != pj:
                    key = (abs(v), len(prow) + len(cols[j]), pi, j)
                    if best is None or key < best:
                        best = key
            for i in column:
                if i != pi:
                    row = m[i]
                    key = (abs(row[pj]), len(row) + len(column), i, pj)
                    if best is None or key < best:
                        best = key
            pi, pj = best[2:]
            prow = m[pi]
        del m[pi], cols[pj]
        diag.append(abs(p))
    torsion = [d for d in diag if d > 1]  # a 1 already divides every entry
    for i in range(len(torsion)):
        for j in range(i + 1, len(torsion)):
            g = gcd(torsion[i], torsion[j])
            torsion[i], torsion[j] = g, torsion[i] // g * torsion[j]
    return [1] * (ones + len(diag) - len(torsion)) + torsion


def h1(p: SurgeryPresentation) -> Homology:
    """First homology of the surgered manifold via Smith normal form.

    Row i of the presentation matrix is q_i * linking(i, .) with diagonal
    p_i, for coefficient p_i/q_i; components of slope inf are erased with
    their rows and columns.

    Before any row is built, the declared meridian chains fold by their
    continued fractions, tail first.  A meridian a of slope p/q != 0
    whose own meridians are all folded or erased folds into its target b
    when b is itself a declared meridian with integer coefficient n: b's
    slope becomes (n*p - q)/p, in lowest terms since gcd(n*p - q, p) =
    gcd(q, p) = 1 (both signs flipped if p < 0), and a's row and column
    go.  That is the Tietze elimination of x_a through row b: by the edge
    rule row b is the only other row holding column a, with the unit
    lk(a, b) = +-1, and putting x_a from row b into row a gives b's new
    row.  It is done here in integers and calls no move, so kirby_reduce's
    check stays independent of ``slam_dunk``.  A fold stops at a chain's
    head, the meridian whose target is no meridian, since folding it
    would scale the target's whole linking row by p.  A meridian of slope
    0, or of a target that is rational or inf, stays too, and so does
    its target, which still carries it.

    Each row left goes to ``_smith_diagonal`` as a dict built straight
    from its linking pairs, with no entry for a zero p_i, so it holds
    nonzero values only; a removed component's own pairs name the rows
    that hold its column.  There the +-1 entries left, the chain heads
    and the other meridians, are pivoted away first, and Euclid steps
    with nearest-integer quotients, each pivot at most half the one
    before, finish the small core that is left.
    """
    components, linking = p.components, p.linking
    # each slope as (p, q), q > 0; gone holds the erased and the folded
    slopes = [None if c is INF else (c.numerator, c.denominator) for _, c, _ in components]
    gone = {i for i, s in enumerate(slopes) if s is None}
    names = {c.name: i for i, c in enumerate(components)}
    # target of each meridian, and how many own meridians each still has
    target = {}
    waiting = [0] * len(components)
    for a, b in p.meridian_edges:
        a, b = names[a], names[b]
        target[a] = b
        if a not in gone:
            waiting[b] += 1
    ready = [a for a in target if not waiting[a] and a not in gone]
    while ready:
        a = ready.pop()
        b = target[a]
        num, den = slopes[a]
        if num and b in target and slopes[b] and slopes[b][1] == 1:
            if num < 0:
                num, den = -num, -den
            slopes[b] = (slopes[b][0] * num - den, num)
            gone.add(a)
            waiting[b] -= 1
            if not waiting[b]:
                ready.append(b)
    rows = {}
    for i, pairs in enumerate(linking):
        if i not in gone:
            num, den = slopes[i]
            row = rows[i] = dict(pairs) if den == 1 else {j: den * v for j, v in pairs}
            if num:
                row[i] = num
    for i in gone:
        for j, _ in linking[i]:
            rows.get(j, {}).pop(i, None)
    diag = _smith_diagonal(list(rows.values()))
    return Homology(tuple(d for d in diag if d > 1), len(rows) - len(diag))


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


class TraceStep(NamedTuple):
    move: str
    components_before: int
    components_after: int
    h1: Homology
    result: SurgeryPresentation
    note: str = ""


class KirbyTrace(NamedTuple):
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
                if any(abs(v) >= 2 for _, v in current.linking[ci]):
                    note = "a strand passes the deleted unknot more than once; writhe not tracked"
            after = apply_move(current, move)
        except ValueError as exc:
            raise ValueError(f"step {k} ({render_move(move)}): {exc}") from exc
        step_h1 = h1(after)
        if step_h1 != invariant:
            raise RuntimeError(
                f"step {k} ({render_move(move)}) changed H1 from "
                f"{invariant.render()} to {step_h1.render()}; this is a bug"
            )
        sizes = len(current.components), len(after.components)
        steps.append(TraceStep(render_move(move), *sizes, step_h1, after, note))
        current = after
    return current, KirbyTrace(invariant, tuple(steps))


def render_presentation(p: SurgeryPresentation) -> str:
    components, linking, edges = p
    lines = [f"components {len(components)}"]
    for name, coeff, unknotted in components:
        lines.append(f"{name} {format_slope(coeff)} {1 if unknotted else 0}")
    names = [name for name, _, _ in components]
    lines += [
        f"lk {names[i]} {names[j]} {v}" for i, row in enumerate(linking) for j, v in row if j > i
    ]
    lines += [f"meridian {a} {b}" for a, b in sorted(edges)]
    return "\n".join(lines)


# each line kind of the two text formats, as its one-line errors spell it
_PRESENTATION_FORMS = {
    "components": "components <k>",
    "lk": "lk <a> <b> <v>",
    "meridian": "meridian <a> <b>",
}
_COMPONENT_FORM = "<name> <coefficient> <0|1>"
_MOVE_FORMS = {
    "blowdown": "blowdown <name>",
    "blowup": "blowup <eps> <v1> <v2> ...",
    "slamdunk": "slamdunk <meridian> <target>",
    "slide": "slide <i> <j> <+|->",
    "chain": "chain <name>",
}


def _integer(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {text!r}") from None


def _lines(text: str):
    """(line number, fields, line) of each line that is not blank or a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split(), line


def parse_presentation(text: str) -> SurgeryPresentation:
    comps: list[tuple[str, object, bool]] = []
    lk_lines: list[tuple[int, str, str, int]] = []
    meridians: list[tuple[str, str]] = []
    want = None
    for lineno, fields, line in _lines(text):
        kind = fields[0]
        form = _PRESENTATION_FORMS.get(kind, _COMPONENT_FORM)
        try:
            if len(fields) != len(form.split()):
                raise ValueError(f"expected '{form}', got {line!r}")
            if kind == "components":
                want = _integer(fields[1], "component count")
            elif kind == "lk":
                lk_lines.append((lineno, fields[1], fields[2], _integer(fields[3], "linking number")))
            elif kind == "meridian":
                meridians.append((fields[1], fields[2]))
            else:
                name, coeff, unk = fields
                if unk not in ("0", "1"):
                    raise ValueError(f"unknotted flag must be 0 or 1, got {unk!r}")
                comps.append((name, parse_slope(coeff), unk == "1"))
        except ValueError as exc:
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
    for lineno, (kind, *args), line in _lines(text):
        try:
            form = _MOVE_FORMS.get(kind)
            if form is None:
                raise ValueError(f"unrecognized move {line!r}")
            # a blow-up's vector has one entry per component, however many
            fits = len(args) >= 1 if kind == "blowup" else len(args) == form.count(" ")
            if not fits or kind == "slide" and args[2] not in ("+", "-"):
                raise ValueError(f"expected '{form}', got {line!r}")
            if kind == "blowup":
                vector = tuple(_integer(v, "linking number") for v in args[1:])
                moves.append(("blowup", _integer(args[0], "blow-up framing"), vector))
            elif kind == "slide":
                moves.append(("slide", *args[:2], 1 if args[2] == "+" else -1))
            else:
                moves.append((kind, *args))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return moves
