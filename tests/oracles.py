"""Independent reference implementations used only by the test suite.

Everything here recomputes package outputs from first principles with
deliberately different plumbing: raw dicts for polynomials, a grid walk
for DT codes, long division for the torus-knot formula, Bareiss
elimination for determinants, a Fox coloring matrix for knot
determinants, gcds of minors for invariant factors, and sorted terms
through the public constructor for the Jones row.  Three are earlier
versions of package functions kept as references for faster rewrites:
the stack-only cyclic free reduction, the state sum's gluing order, and
the full check of a surgery presentation after each Kirby move.
Nothing imports from twistlink.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

# ---------------------------------------------------------------------------
# Laurent polynomials as raw {exponent: coefficient} dicts


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
        if out[e] == 0:
            del out[e]
    return out


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_pow(a: dict, k: int) -> dict:
    out = {0: 1}
    for _ in range(k):
        out = poly_mul(out, a)
    return out


# ---------------------------------------------------------------------------
# Kauffman bracket by brute smoothing enumeration over braid letters


def _dsu_find(parent: dict, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _dsu_union(parent: dict, x, y):
    parent.setdefault(x, x)
    parent.setdefault(y, y)
    rx, ry = _dsu_find(parent, x), _dsu_find(parent, y)
    if rx != ry:
        parent[rx] = ry


def brute_bracket(strands: int, letters: tuple[int, ...]) -> dict:
    """<closure> as a raw dict in A, delta = -A^2 - A^-2, unknot -> {0: 1}."""
    c = len(letters)
    delta = {2: -1, -2: -1}
    total: dict = {}
    for state in range(1 << c):
        parent: dict = {}
        segments = [("s", i) for i in range(strands)]
        for i in range(strands):
            parent[("s", i)] = ("s", i)
        current = list(segments)
        b_count = 0
        for t, g in enumerate(letters):
            j = abs(g) - 1
            pick_b = (state >> t) & 1
            b_count += pick_b
            # A smooths a positive crossing to the identity tangle,
            # B to the cup-cap; signs swap the roles
            cupcap = (g > 0) == bool(pick_b)
            if cupcap:
                _dsu_union(parent, current[j], current[j + 1])
                fresh = ("c", t, 0)
                fresh2 = ("c", t, 1)
                parent[fresh] = fresh
                parent[fresh2] = fresh2
                _dsu_union(parent, fresh, fresh2)
                current[j], current[j + 1] = fresh, fresh2
        for i in range(strands):
            _dsu_union(parent, current[i], ("s", i))
        loops = len({_dsu_find(parent, x) for x in parent})
        term = poly_mul({c - 2 * b_count: 1}, poly_pow(delta, loops - 1))
        total = poly_add(total, term)
    return total


def brute_jones(strands: int, letters: tuple[int, ...]) -> dict:
    """V(closure) in A after writhe normalization (t = A^-4 left implicit)."""
    w = sum(1 if g > 0 else -1 for g in letters)
    bracket = brute_bracket(strands, letters)
    sign = 1 if w % 2 == 0 else -1
    return poly_mul({-3 * w: sign}, bracket)


def jones_dict_in_t(strands: int, letters: tuple[int, ...]) -> dict:
    """As brute_jones but with exponents divided by -4; requires a knot."""
    va = brute_jones(strands, letters)
    assert all(e % 4 == 0 for e in va), "closure is not a knot (half-integer span)"
    return {-e // 4: c for e, c in va.items()}


def jones_row(name: str | None, bracket, w: int) -> str:
    """The CLI row of V = (-A)^(-3w) * ``bracket``, built the long way.

    Each of the writhe shift, the sign (-1)^w and the change to t = A^-4
    (when every exponent is divisible by 4) reads the sorted ``terms()``
    of the step before it and goes through the public constructor of the
    bracket's own class, which is how this stays clear of any import.
    The row then reads ``coefficient`` over the t span, or a dict of
    half-powers k/2 of t (k = -e/2) for an A-tagged value.
    """
    poly = type(bracket)
    v = poly(bracket.variable, {e - 3 * w: c for e, c in bracket.terms()})
    if w % 2:
        v = poly(v.variable, {e: -c for e, c in v.terms()})
    if not any(e % 4 for e, _ in v.terms()):
        v = poly("t", {-e // 4: c for e, c in v.terms()})
    if v.variable == "t":
        lo, hi = v.degree_span()
        coeffs = [v.coefficient(e) for e in range(lo, hi + 1)]
        span = f"({lo},{hi})"
    else:
        halves = {-e // 2: c for e, c in v.terms()}
        lo, hi = min(halves), max(halves)
        coeffs = [halves.get(k, 0) for k in range(lo, hi + 1, 2)]
        span = f"({lo}/2,{hi}/2)"
    row = f"span={span} coeffs=[{','.join(str(c) for c in coeffs)}]"
    return f"{name} {row}" if name else row


# ---------------------------------------------------------------------------
# Closed torus-knot formula, evaluated by long division in t


def torus_jones(p: int, q: int) -> dict:
    """V(T(p,q)) = t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2)."""
    if q < 0:
        return {-e: c for e, c in torus_jones(p, -q).items()}
    num = {0: 1, p + 1: -1, q + 1: -1, p + q: 1}
    quot: dict = {}
    while num:
        lo = min(num)
        coef = num[lo]
        quot[lo] = coef
        num = poly_add(num, {lo: -coef, lo + 2: coef})
    shift = (p - 1) * (q - 1) // 2
    return {e + shift: c for e, c in quot.items()}


# ---------------------------------------------------------------------------
# DT code by exhaustive grid traversal of a braid closure


def grid_dt(strands: int, letters: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical DT code of the closure, which must be a knot."""
    c = len(letters)
    if c == 0:
        raise ValueError("need at least one crossing")
    # follow the knot through the braid grid, recording (crossing, over) visits
    visits = []
    pos, t = 0, 0
    seen_starts = {0}
    while True:
        if t == len(letters):
            t = 0
            if pos == 0:
                break
            seen_starts.add(pos)
        g = letters[t]
        j = abs(g) - 1
        if pos == j:
            visits.append((t, g > 0))
            pos = j + 1
        elif pos == j + 1:
            visits.append((t, g < 0))
            pos = j
        t += 1
    if len(seen_starts) != strands:
        raise ValueError("closure has more than one component")
    assert len(visits) == 2 * c

    def code_for(seq):
        by_cross: dict = {}
        for idx, (cross, over) in enumerate(seq):
            by_cross.setdefault(cross, []).append((idx, over))
        out = [0] * c
        for (i1, o1), (i2, o2) in by_cross.values():
            assert (i1 + i2) % 2 == 1, "each crossing needs one odd and one even label"
            odd0, even0 = (i1, i2) if i1 % 2 == 0 else (i2, i1)
            over_at_even = o2 if even0 == i2 else o1
            entry = even0 + 1
            out[odd0 // 2] = -entry if over_at_even else entry
        return tuple(out)

    best = None
    for seq in (visits, visits[::-1]):
        for shift in range(2 * c):
            rotated = seq[shift:] + seq[:shift]
            code = code_for(rotated)
            key = (tuple(abs(e) for e in code), tuple(e < 0 for e in code))
            if best is None or key < best[0]:
                best = (key, code)
    return best[1]


# ---------------------------------------------------------------------------
# Integer determinant by fraction-free Bareiss elimination


def det_bareiss(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def invariant_factors(rows: list[list[int]]) -> list[int]:
    """Nonzero invariant factors from determinantal divisors.

    D_k is the gcd of all k x k minors and d_k = D_k / D_(k-1), up to the
    rank, past which every minor vanishes.  Enumerates every minor, so it
    is only for small matrices.
    """
    nr, nc = len(rows), len(rows[0]) if rows else 0
    factors = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        divisor = 0
        for r in combinations(range(nr), k):
            for c in combinations(range(nc), k):
                divisor = gcd(divisor, det_bareiss([[rows[i][j] for j in c] for i in r]))
        if divisor == 0:
            break
        factors.append(divisor // prev)
        prev = divisor
    return factors


# ---------------------------------------------------------------------------
# Reference versions of the cyclic free reduction and the gluing order


def free_reduce_cyclic(letters) -> tuple:
    """Cancel adjacent inverse letters, the closure seam included, by a stack pass."""
    out: list[int] = []
    for g in letters:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    start, end = 0, len(out)
    while end - start >= 2 and out[start] == -out[end - 1]:
        start += 1
        end -= 1
    return tuple(out[start:end])


def gluing_order(arcs: list[tuple[int, int, int, int]]) -> list[int]:
    """Crossing indices in the state sum's gluing order, from each crossing's arcs.

    Word order unless a bucket queue, gluing next the unglued crossing
    that touches the most open arcs (the one bumped last on ties), keeps
    its frontier strictly below word order's peak throughout.
    """
    c = len(arcs)
    ends = [-1] * (1 + max(map(max, arcs), default=-1))
    f = word_peak = 0
    for t, quad in enumerate(arcs):
        for a in quad:
            if ends[a] < 0:
                ends[a] = t
                f += 1
            else:
                ends[a] += t
                f -= 1
        if f > word_peak:
            word_peak = f

    count = [0] * c
    buckets: list[list[int]] = [list(range(c - 1, -1, -1)), [], [], [], []]
    done = bytearray(c)
    order = []
    f = top = 0
    for _ in range(c):
        while True:
            bucket = buckets[top]
            if not bucket:
                top -= 1
                continue
            t = bucket.pop()
            if count[t] == top and not done[t]:
                break
        done[t] = 1
        order.append(t)
        for a in arcs[t]:
            u = ends[a] - t
            if u == t:
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


# ---------------------------------------------------------------------------
# Random-object helpers shared by property tests


def random_knot_braid(rng, max_strands=5, max_letters=12):
    """A braid whose closure is a knot, by rejection sampling."""
    while True:
        n = rng.randint(2, max_strands)
        k = rng.randint(n, max_letters)
        letters = tuple(
            rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(k)
        )
        # closure component count = cycles of the strand permutation
        perm = list(range(n))
        for g in letters:
            j = abs(g) - 1
            perm[j], perm[j + 1] = perm[j + 1], perm[j]
        seen = set()
        cycles = 0
        for i in range(n):
            if i not in seen:
                cycles += 1
                x = i
                while x not in seen:
                    seen.add(x)
                    x = perm.index(x)
        if cycles == 1:
            return n, letters


# ---------------------------------------------------------------------------
# Knot determinant from the Fox coloring matrix of a braid closure


def coloring_determinant(strands: int, letters: tuple[int, ...]) -> int:
    """|det| of the closure, a knot, from a first minor of its coloring matrix.

    Over-arcs run from one undercrossing to the next.  Each crossing
    gives the row 2 over - under_in - under_out, and every first minor
    of the square matrix these rows make has |det| equal to the knot
    determinant |V(-1)|.  The strand entering on the left passes over
    at a positive letter and under at a negative one; the other choice
    gives the mirror, which has the same determinant.
    """
    arc = list(range(strands))  # the over-arc at each strand position
    crossings = []
    fresh = strands
    for g in letters:
        j = abs(g) - 1
        over, under = (j, j + 1) if g > 0 else (j + 1, j)
        crossings.append((arc[over], arc[under], fresh))
        arc[j], arc[j + 1] = arc[j + 1], arc[j]
        arc[2 * j + 1 - under] = fresh  # the under strand leaves on a new arc
        fresh += 1
    parent = {x: x for x in range(fresh)}
    for i in range(strands):  # the closure joins each top arc to its bottom arc
        _dsu_union(parent, arc[i], i)
    column = {}
    for x in range(fresh):
        column.setdefault(_dsu_find(parent, x), len(column))
    if len(column) != len(crossings):
        raise ValueError("closure is not a knot with a crossing")
    rows = []
    for over, under_in, under_out in crossings:
        row = [0] * len(column)
        row[column[_dsu_find(parent, over)]] += 2
        row[column[_dsu_find(parent, under_in)]] -= 1
        row[column[_dsu_find(parent, under_out)]] -= 1
        rows.append(row)
    return abs(det_bareiss([row[1:] for row in rows[1:]]))


# ---------------------------------------------------------------------------
# Reference version of the full rebuild after a Kirby move


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
    for j, v in enumerate(row):
        if v and components[j].name != b and components[j].name not in mine:
            return f"meridian links stray component {components[j].name!r}"
    return None


def rebuild(components, linking, edges) -> tuple:
    """(components, linking, kept edges) of a move's result, every edge and row checked.

    Prunes the largest subset of edges that are all valid against that
    subset, re-checking every edge after each drop, then checks the whole
    linking matrix with the package's messages.
    """
    comps = tuple(components)
    mat = tuple(tuple(row) for row in linking)
    names = {c.name: i for i, c in enumerate(comps)}
    kept = set(edges)
    while True:
        own: dict[str, set[str]] = {}
        for a, b in kept:
            own.setdefault(b, set()).add(a)
        bad = {e for e in kept if _edge_problem(comps, mat, names, own, e)}
        if not bad:
            break
        kept -= bad
    k = len(comps)
    if len(names) != k:
        raise ValueError("component names must be distinct")
    if len(mat) != k or any(len(row) != k for row in mat):
        raise ValueError("linking matrix size must match component count")
    for i, row in enumerate(mat):
        if row[i] != 0:
            raise ValueError("linking diagonal must be zero")
        if any(row[j] != mat[j][i] for j in range(i)):
            raise ValueError("linking matrix must be symmetric")
    return comps, mat, frozenset(kept)
