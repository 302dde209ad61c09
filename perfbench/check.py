"""Correctness checks that share no code with twistlink.

* ``jones_at`` evaluates the Jones polynomial of a braid closure at one
  fixed point modulo the prime 2^61 - 1, by a Temperley-Lieb style
  contraction over scalars written here from scratch.  ``row_at``
  evaluates a printed `twistlink jones` row at the same point, so a row
  that differs from the true polynomial in any coefficient disagrees
  (a wrong polynomial agrees by chance with probability about
  span / 2^61).
* ``check_kirby`` reads a `twistlink kirby` transcript and checks that
  every step ran, every H1 equals the initial one, the initial H1 has
  the order |det| of the linking matrix, and every rational coefficient
  returns to its generated value after its chain round trip.
"""

from __future__ import annotations

import re
from fractions import Fraction

from workloads import format_slope

P = (1 << 61) - 1
A0 = 0x1D3F4B2A9C8E7F61 % P  # evaluation point for the bracket variable A

_ROW = re.compile(
    r"^(?:(?P<name>\S+) )?span=\((?P<lo>-?\d+)(?P<h1>/2)?,(?P<hi>-?\d+)(?P<h2>/2)?\)"
    r" coeffs=\[(?P<body>-?\d+(?:,-?\d+)*)\]$"
)


def components(strands: int, letters) -> int:
    """Number of components of the closure: cycles of the strand permutation."""
    perm = list(range(strands))
    for g in letters:
        j = abs(g) - 1
        perm[j], perm[j + 1] = perm[j + 1], perm[j]
    seen = [False] * strands
    cycles = 0
    for i in range(strands):
        if not seen[i]:
            cycles += 1
            while not seen[i]:
                seen[i] = True
                i = perm[i]
    return cycles


def jones_at(strands: int, letters, a: int = A0) -> int:
    """V(closure of the braid) at A = a, modulo P, with t = A^-4.

    Points 0..n-1 are the top ends of the strands and n..2n-1 the current
    bottom ends; a state is a planar matching of these points.  A letter
    either keeps the matching (weight A for a positive letter) or caps
    the two bottom ends at its position and cups new ones (weight A^-1),
    closing a loop when the capped ends were already paired.
    """
    n = strands
    ainv = pow(a, -1, P)
    delta = (-a * a - ainv * ainv) % P
    states = {tuple(list(range(n, 2 * n)) + list(range(n))): 1}
    for g in letters:
        x, y = n + abs(g) - 1, n + abs(g)
        keep, turn = (a, ainv) if g > 0 else (ainv, a)
        nxt: dict[tuple[int, ...], int] = {}
        for m, v in states.items():
            nxt[m] = (nxt.get(m, 0) + v * keep) % P
            w = v * turn
            if m[x] == y:
                w *= delta
                m2 = m
            else:
                lst = list(m)
                px, py = m[x], m[y]
                lst[px], lst[py] = py, px
                lst[x], lst[y] = y, x
                m2 = tuple(lst)
            nxt[m2] = (nxt.get(m2, 0) + w) % P
        states = nxt
    bracket = 0
    for m, v in states.items():
        # close up: bottom end i meets top end i; count the loops formed
        seen = [False] * (2 * n)
        loops = 0
        for start in range(2 * n):
            if seen[start]:
                continue
            loops += 1
            p = start
            while not seen[p]:
                seen[p] = True
                q = m[p]
                seen[q] = True
                p = q - n if q >= n else q + n
        bracket += v * pow(delta, loops - 1, P)
    writhe = sum(1 if g > 0 else -1 for g in letters)
    sign = -1 if writhe % 2 else 1
    return sign * bracket * pow(a, -3 * writhe, P) % P


def parse_row(row: str) -> tuple[str | None, bool, int, int, list[int]]:
    """(name, half, lo, hi, coeffs) of a jones row; raises ValueError."""
    m = _ROW.match(row)
    if not m or bool(m["h1"]) != bool(m["h2"]):
        raise ValueError(f"malformed row {row!r}")
    half = bool(m["h1"])
    lo, hi = int(m["lo"]), int(m["hi"])
    coeffs = [int(c) for c in m["body"].split(",")]
    step = 2 if half else 1
    if hi < lo or (hi - lo) % step or len(coeffs) != (hi - lo) // step + 1:
        raise ValueError(f"span does not match coefficient count in {row!r}")
    if coeffs[0] == 0 or coeffs[-1] == 0:
        raise ValueError(f"span is not tight in {row!r}")
    return m["name"], half, lo, hi, coeffs


def row_at(row: str, a: int = A0) -> tuple[str | None, bool, int]:
    """(name, half, value at A = a mod P) of a jones row.

    A whole span lists powers t^k, k = lo..hi; a half span lists
    t^(k/2), k = lo, lo+2, ..., hi.  With t = A^-4 these are A^(-4k) and
    A^(-2k).
    """
    name, half, lo, hi, coeffs = parse_row(row)
    if half:
        exps = [-2 * k for k in range(lo, hi + 1, 2)]
    else:
        exps = [-4 * k for k in range(lo, hi + 1)]
    return name, half, sum(c * pow(a, e, P) for c, e in zip(coeffs, exps)) % P


def jones_expected(strands: int, letters) -> tuple[bool, int]:
    """(half, value at A0) that a correct row for the braid must have."""
    return components(strands, letters) % 2 == 0, jones_at(strands, letters)


def jones_row_problem(row: str, expected: tuple[bool, int]) -> str | None:
    """Why ``row`` is not the polynomial ``jones_expected`` describes, or None."""
    try:
        _, half, value = row_at(row)
    except ValueError as exc:
        return str(exc)
    if half != expected[0]:
        return "row uses the wrong power grid for the component count"
    if value != expected[1]:
        return "row disagrees with the modular evaluation"
    return None


# -- kirby -------------------------------------------------------------------


def det_bareiss(rows: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    m = [row[:] for row in rows]
    n = len(m)
    sign, prev = 1, 1
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
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def h1_order(framings, coefficients, linking) -> int:
    """|det| of the surgery presentation matrix (0: infinite H1)."""
    diag = [Fraction(n) for n in framings] + list(coefficients)
    rows = []
    for i, c in enumerate(diag):
        row = [c.denominator * v for v in linking[i]]
        row[i] = c.numerator
        rows.append(row)
    return abs(det_bareiss(rows))


def _order_of(h1: str) -> int:
    """Order of a rendered H1 (0 when it has a free part)."""
    order = 1
    if h1 == "trivial":
        return order
    for part in h1.split(" + "):
        if not part.startswith("Z/"):
            return 0
        order *= int(part[2:])
    return order


def _blocks(text: str) -> list[list[str]]:
    blocks, cur = [], []
    for line in text.splitlines():
        if line:
            cur.append(line)
        elif cur:
            blocks.append(cur)
            cur = []
    if cur:
        blocks.append(cur)
    return blocks


def check_kirby(job, text: str) -> tuple[int, list[str]]:
    """(failed steps, problems) of a kirby transcript for ``job``."""
    problems: list[str] = []
    blocks = _blocks(text)
    moves = job.moves
    if not blocks or blocks[0][0] != "initial":
        return len(moves), ["transcript does not start with the initial presentation"]
    h1_lines = [line for line in blocks[0] if line.startswith("H1 = ")]
    if len(h1_lines) != 1:
        return len(moves), ["initial block has no H1 line"]
    initial = h1_lines[0]
    want = h1_order(job.framings, job.coefficients, job.linking)
    if _order_of(initial[5:]) != want:
        return len(moves), [f"initial {initial!r} does not have order |det| = {want}"]

    count = len(job.integer) + len(job.rational)
    last_dunk = {m: f"slamdunk {m}.2 {m}" for m in job.rational}
    expected = dict(zip(job.rational, job.coefficients))
    growth = {f"chain {m}": L - 1 for m, L in zip(job.rational, job.lengths)}
    failed = 0
    for k, move in enumerate(moves, start=1):
        count += growth.get(move, -1 if move.startswith("slamdunk") else 0)
        block = blocks[k] if k < len(blocks) else None
        problem = None
        if block is None or len(block) < 2 or block[0] != f"step {k}: {move}":
            problem = "missing"
        elif block[1] != f"components {count}":
            problem = f"{block[1]!r}, expected {count} components"
        elif initial not in block:
            problem = "H1 changed"
        else:
            for m, dunk in last_dunk.items():
                if move == dunk:
                    coeff = next((line.split()[1] for line in block if line.split()[0] == m), None)
                    if coeff != format_slope(expected[m]):
                        problem = f"{m} came back as {coeff}, expected {expected[m]}"
        if problem:
            failed += 1
            problems.append(f"step {k} ({move}): {problem}")
    if len(blocks) != len(moves) + 1:
        problems.append(f"{len(blocks) - 1} step blocks for {len(moves)} moves")
        failed = max(failed, 1)
    return failed, problems
