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

Coefficients are slopes: a ``Fraction`` or the infinite slope ``INF``.
Slopes also meet braids here: ``blow_down_axis`` turns a -1/s framed
axis circle around adjacent strands into s full twists on them.  This is
the only module of the package that imports ``fractions``, which loads
``decimal``, so the commands that read no slope load neither.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress
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
    """Components, their symmetric linking matrix and meridian edges, checked when built."""

    __slots__ = ()

    def __new__(
        cls,
        components: tuple[Component, ...],
        linking: tuple[tuple[int, ...], ...],
        meridian_edges: frozenset[tuple[str, str]],
    ):
        self = super().__new__(cls, components, linking, meridian_edges)
        for c in components:
            _check_name(c.name)
        for row in linking:
            _check_linking(row)
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
        """Check the size, zero diagonal and symmetry of the given rows and their columns.

        The rows go in ascending order.  Row i is compared with column i
        except where a row still to come will compare the same pair, so
        given every row this finds the first bad row of the matrix, and
        given a few it reads O(k) entries per row.
        """
        linking = self.linking
        k = len(self.components)
        if len(linking) != k or any(len(linking[i]) != k for i in rows):
            raise ValueError("linking matrix size must match component count")
        rows = sorted(rows)
        to_come = set(rows)
        for i in rows:
            row = linking[i]
            if row[i] != 0:
                raise ValueError("linking diagonal must be zero")
            to_come.discard(i)
            column = [other[i] for other in linking]
            # the scan runs only when some pair differs
            if list(row) != column and any(
                row[j] != column[j] for j in range(k) if j not in to_come
            ):
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
    dropped.  Only their rows and columns are checked, and only the edges
    out of them, with the cascade of ``_prune_edges``; every new edge must
    leave one of them.  That is enough because an edge (a, b) depends only
    on a's flag, a's row and a's own meridians, and a row that lost only
    the columns of deleted components lost at most stray links.  So a
    slam-dunk, which deletes a meridian linking nothing but its target,
    names only the target: no other row changes, and no other edge can
    break.
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
        comps.append(comp._replace(coefficient=coeff, unknotted=unknotted))
    mat = [
        [row[j] - eps * lk_c[i] * lk_c[j] if i != j else 0 for j in keep]
        for i, row in enumerate(p.linking)
        if i != ci
    ]

    edges = {e for e in p.meridian_edges if name not in e}
    sources = [a for a, b in p.meridian_edges if b == name]
    targets = [b for a, b in p.meridian_edges if a == name]
    if len(sources) == 1 and targets:
        edges.add((sources[0], targets[0]))
    # the neighbors hold every changed row and flag; a re-aimed edge and
    # each dropped edge's target are among them, since each links c
    changed = {p.components[i].name for i in keep if lk_c[i]}
    return _rebuild(comps, mat, edges, changed)


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
        comps.append(comp._replace(coefficient=coeff))
    comps.append(Component(name, Fraction(eps), True))
    k = len(p.components)
    mat = [
        [row[j] + eps * links_to[i] * links_to[j] if i != j else 0 for j in range(k)]
        + [links_to[i]]
        for i, row in enumerate(p.linking)
    ]
    mat.append(list(links_to) + [0])
    changed = {comp.name for comp, v in zip(p.components, links_to) if v}
    changed.add(name)
    return _rebuild(comps, mat, p.meridian_edges, changed)


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
    keep = [i for i in range(len(p.components)) if i != mi]
    comps = [
        p.components[i]._replace(coefficient=coeff) if i == ti else p.components[i] for i in keep
    ]
    mat = [row[:mi] + row[mi + 1 :] for i, row in enumerate(p.linking) if i != mi]
    # the meridian links only its target, and (meridian, target) is its
    # only edge, so only the target's row changes
    edges = {e for e in p.meridian_edges if meridian not in e}
    return _rebuild(comps, mat, edges, {target})


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
        c._replace(coefficient=coeff, unknotted=False) if x == i else c
        for x, c in enumerate(p.components)
    ]
    edges = {e for e in p.meridian_edges if e[0] != i_name}
    # row i changes where row j is nonzero, and so do those rows and row j;
    # i's edges all go, and each of their targets loses a meridian
    changed = {c.name for c, v in zip(p.components, p.linking[j]) if v}
    changed |= {i_name, j_name}
    changed |= {b for a, b in p.meridian_edges if a == i_name}
    return _rebuild(comps, mat, edges, changed)


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
    k = len(p.components)
    total = k + len(fresh)
    mat = [[0] * total for _ in range(total)]
    for i, row in enumerate(p.linking):
        mat[i][:k] = row
    chain = [ci] + list(range(k, total))
    for a, b in zip(chain, chain[1:]):
        mat[a][b] = mat[b][a] = 1
    edges = set(p.meridian_edges)
    prev = name
    for f in fresh:
        edges.add((f, prev))
        prev = f
    return _rebuild(comps, mat, edges, {name, *fresh})


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

    Each row is a ``{column: value}`` dict of the row's nonzero entries
    (zero values are ignored, and the rows are not changed).  Elimination
    works on copies of the rows with a col -> rows index, in two phases
    that make every row update through ``_subtract``.

    First the +-1 pivots, least fill first (``_clear_unit_pivots``): each
    clears its column, is dropped with its row and adds a 1 to the
    diagonal, until no +-1 entry is left.  Dumas, Saunders and Villard
    (J. Symb. Comput. 32, 2001) also begin sparse Smith forms with these
    pivots.  On a Kirby presentation this leaves a small core.

    Then a plain Euclid loop diagonalizes the core.  Each round starts
    from a row with the fewest nonzeros and its least-|value| entry, ties
    going to the column with the fewest nonzeros.  The pivot reduces its
    column and row modulo itself, which leaves remainders only in that row
    and column, so the next pivot is the least of them until both are
    clear; then |p| is recorded and they are dropped.  A +-1 that a
    remainder makes takes the same path, clearing its column and row in
    one round.  Last the diagonal is made a divisor chain, since
    diag(a, b) has Smith form diag(gcd, lcm).
    """
    m = {}
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        row = {j: v for j, v in row.items() if v}
        if row:
            m[i] = row
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
            for i in cols[pj] - {pi}:
                q = m[i][pj] // p
                if q:
                    _subtract(m, cols, i, q, prow)
            quotients = {j: q for j, v in prow.items() if j != pj and (q := v // p)}
            if quotients:
                for i in list(cols[pj]):
                    _subtract(m, cols, i, m[i][pj], quotients)
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
    torsion = [d for d in diag if d > 1]  # a 1 already divides every entry
    for i in range(len(torsion)):
        for j in range(i + 1, len(torsion)):
            g = gcd(torsion[i], torsion[j])
            torsion[i], torsion[j] = g, torsion[i] // g * torsion[j]
    return [1] * (ones + len(diag) - len(torsion)) + torsion


def h1(p: SurgeryPresentation) -> Homology:
    """First homology of the surgered manifold via Smith normal form.

    Row i of the presentation matrix is q_i * linking(i, .) with diagonal
    p_i, for coefficient p_i/q_i; components with infinite coefficient are
    erased, with their rows and columns.  Each row goes to
    ``_smith_diagonal`` as a dict built in one pass over the nonzeros of
    its linking row, keyed by component index, from which the columns of
    erased components are then dropped.  There the +-1 entries, the chain
    links and meridians, are pivoted away first, and Euclid steps finish
    the small core that is left.
    """
    components = p.components
    erased = [i for i, (_, coeff, _) in enumerate(components) if coeff is INF]
    columns = range(len(components))
    rows = []
    for i, ((_, coeff, _), linking) in enumerate(zip(components, p.linking)):
        if coeff is INF:
            continue
        q = coeff.denominator
        row = {j: q * linking[j] for j in compress(columns, linking)}
        row[i] = coeff.numerator
        for j in erased:
            row.pop(j, None)
        rows.append(row)
    diag = _smith_diagonal(rows)
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
    components, linking, edges = p
    lines = [f"components {len(components)}"]
    for name, coeff, unknotted in components:
        lines.append(f"{name} {format_slope(coeff)} {1 if unknotted else 0}")
    names = [name for name, _, _ in components]
    for i, row in enumerate(linking):
        for j in compress(range(i + 1, len(row)), row[i + 1 :]):
            lines.append(f"lk {names[i]} {names[j]} {row[j]}")
    for a, b in sorted(edges):
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
