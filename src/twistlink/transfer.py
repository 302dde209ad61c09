"""Kauffman bracket of a braid closure by Temperley-Lieb transfer.

Each braid letter is represented in the Temperley-Lieb algebra TL_n as
sigma_i -> A + A^-1 e_i (inverse letters swap A and A^-1), acting on a
vector indexed by crossingless matchings of the 2n boundary points.  The
closure is taken with the Markov trace: a matching closing into k loops
contributes delta^(k-1).

This module shares no skein code with the state-sum route.
"""

from __future__ import annotations

from .braid import BraidWord
from .poly import DELTA, VAR_A, LaurentPoly, delta_power


def identity_matching(n: int) -> tuple[int, ...]:
    return tuple(2 * n - 1 - i for i in range(2 * n))


def apply_e(m: tuple[int, ...], j: int, n: int) -> tuple[tuple[int, ...], bool]:
    """Stack generator e_j on top of matching ``m``.

    Returns the resulting matching and whether a closed loop was absorbed
    (worth one factor of delta).
    """
    p, q = 2 * n - j - 1, 2 * n - j
    if m[p] == q:
        return m, True
    a, b = m[p], m[q]
    out = list(m)
    out[a], out[b] = b, a
    out[p], out[q] = q, p
    return tuple(out), False


def closure_loops(m: tuple[int, ...], n: int) -> int:
    """Loops formed when the trace closure joins top point i to bottom i."""
    seen = [False] * (2 * n)
    loops = 0
    for start in range(2 * n):
        if seen[start]:
            continue
        loops += 1
        x = start
        while not seen[x]:
            seen[x] = True
            y = m[x]
            seen[y] = True
            x = 2 * n - 1 - y  # matching edge, then closure edge
    return loops


def bracket(b: BraidWord) -> LaurentPoly:
    """Kauffman bracket of the closure of ``b``, normalized to <unknot> = 1."""
    n = b.strands
    one = LaurentPoly.one(VAR_A)
    a_pos = LaurentPoly.monomial(VAR_A, 1)
    a_neg = LaurentPoly.monomial(VAR_A, -1)
    vec: dict[tuple[int, ...], LaurentPoly] = {identity_matching(n): one}
    for g in b.letters:
        j = abs(g)
        straight, turned = (a_pos, a_neg) if g > 0 else (a_neg, a_pos)
        nxt: dict[tuple[int, ...], LaurentPoly] = {}
        for m, coef in vec.items():
            prev = nxt.get(m)
            term = coef * straight
            nxt[m] = term if prev is None else prev + term
            m2, looped = apply_e(m, j, n)
            term = coef * turned
            if looped:
                term = term * DELTA
            prev = nxt.get(m2)
            nxt[m2] = term if prev is None else prev + term
        vec = {m: p for m, p in nxt.items() if not p.is_zero}
    total = LaurentPoly.zero(VAR_A)
    for m, coef in vec.items():
        total = total + coef * delta_power(closure_loops(m, n) - 1)
    return total
