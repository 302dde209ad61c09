"""Kauffman bracket of a braid closure by Temperley-Lieb transfer.

Each braid letter is represented in the Temperley-Lieb algebra TL_n as
sigma_i -> A + A^-1 e_i (inverse letters swap A and A^-1), acting on a
vector indexed by crossingless matchings of the 2n boundary points.  The
closure is taken with the Markov trace: a matching closing into k loops
contributes delta^(k-1).

Coefficients are packed by Kronecker substitution (von zur Gathen &
Gerhard, *Modern Computer Algebra*, ch. 8).  Every exponent in the
vector has the parity of the letters read so far, so each entry is one
Python int whose signed slots of ``width`` bits hold the coefficients of
A^low, A^(low+2), A^(low+4), ..., and the whole vector shares the running
exponent ``low``.  A letter g > 0 lowers ``low`` by 3: the identity term
A * v is then ``v << 2 * width`` and the e_j term A^-1 * v is
``v << width``.  A letter g < 0 lowers ``low`` by 1: the identity term
A^-1 * v is ``v`` and the e_j term A * v is again ``v << width``.  When
e_j closes a loop, the identity term and the loop term A^-+1 * delta * v
add up to the curl factor -A^-3 * v (g > 0) or -A^3 * v (g < 0), that
is ``-v`` or ``-(v << 2 * width)``.  Once every n letters the slots that
are zero in every entry are shifted out and ``low`` rises to match;
without that the ints would carry about three empty low slots for every
two letters.

An int is the value of its slot polynomial at 2^width, and every step
is a ring operation, so intermediate slots may overflow and borrow
freely; only the final bracket has to fit its slots to decode.  Measure
a vector by the sum of the absolute values of all its coefficients.  A
letter at most doubles it (the curl term keeps it), and the closure
multiplies it by at most 2^(n-1), so every coefficient of the bracket
of a c-letter word is at most 2^(c+n-1) in absolute value, which
``slot_width`` holds with a sign bit.  As a runtime guard, the
decoded bracket at A = 1 must equal (-1)^w * (-2)^(mu-1), with w the
exponent sum and mu the number of cycles of the strand permutation,
because the Jones polynomial at t = 1 is (-2)^(mu-1); ``bracket`` raises
RuntimeError if it does not.

Matchings are interned to small ids, and each id's e_j move is computed
once per generator, so a letter costs dict lookups on ints.

This module shares no skein code with the state-sum route.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .braid import BraidWord
from .poly import VAR_A, LaurentPoly, delta_power


def identity_matching(n: int) -> tuple[int, ...]:
    return tuple(2 * n - 1 - i for i in range(2 * n))


def apply_e(m: tuple[int, ...], j: int, n: int) -> tuple[int, ...]:
    """Stack generator e_j on top of matching ``m``.

    Returns ``m`` itself exactly when a closed loop was absorbed (worth
    one factor of delta); otherwise the new matching differs from ``m``.
    """
    p, q = 2 * n - j - 1, 2 * n - j
    if m[p] == q:
        return m
    a, b = m[p], m[q]
    out = list(m)
    out[a], out[b] = b, a
    out[p], out[q] = q, p
    return tuple(out)


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


def slot_width(crossings: int, strands: int) -> int:
    """Bits per packed coefficient: c+n for |coefficient| <= 2^(c+n-1), one for the sign."""
    return crossings + strands + 1


def _packed_delta_power(k: int, width: int) -> int:
    """delta^k in slots one A^2 apart, starting at A^(-2k)."""
    return sum(c << ((e + 2 * k) // 2 * width) for e, c in delta_power(k).terms())


def _unpack(packed: int, low: int, width: int) -> LaurentPoly:
    """Decode signed slots one A^2 apart, the first at A^low."""
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    table: dict[int, int] = {}
    while packed:
        c = packed & mask
        if c >= half:
            c -= 1 << width
        if c:
            table[low] = c
        packed = (packed - c) >> width
        low += 2
    return LaurentPoly(VAR_A, table)


def _cycle_count(perm: list[int]) -> int:
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = perm[x] - 1
    return cycles


def bracket(b: BraidWord) -> LaurentPoly:
    """Kauffman bracket of the closure of ``b``, normalized to <unknot> = 1.

    Raises RuntimeError if the decoded bracket fails the A = 1 check.
    """
    n = b.strands
    width = slot_width(len(b.letters), n)
    matchings = [identity_matching(n)]
    ids = {matchings[0]: 0}
    moves: list[dict[int, int]] = [{} for _ in range(n)]  # moves[j][m]: id of e_j m
    vec = {0: 1}
    low = 0
    for step, g in enumerate(b.letters, 1):
        j = abs(g)
        move = moves[j]
        if g > 0:
            low -= 3
            stay, curl = 2 * width, 0
        else:
            low -= 1
            stay, curl = 0, 2 * width
        nxt: dict[int, int] = {}
        get = nxt.get
        for m, v in vec.items():
            m2 = move.get(m)
            if m2 is None:
                target = apply_e(matchings[m], j, n)
                m2 = ids.get(target)
                if m2 is None:
                    m2 = ids[target] = len(matchings)
                    matchings.append(target)
                move[m] = m2
            # a zero shift would copy a big int, and 0 + x copies x
            if m2 == m:  # e_j closed a loop
                x = -(v << curl) if curl else -v
                prev = get(m)
                nxt[m] = x if prev is None else prev + x
            else:
                x = v << stay if stay else v
                prev = get(m)
                nxt[m] = x if prev is None else prev + x
                x = v << width
                prev = get(m2)
                nxt[m2] = x if prev is None else prev + x
        if step % n:
            vec = {m: v for m, v in nxt.items() if v}
        else:  # drop the slots that are zero in every entry
            lowest = reduce(or_, nxt.values())
            drop = ((lowest & -lowest).bit_length() - 1) // width
            bits = drop * width
            vec = {m: v >> bits for m, v in nxt.items() if v}
            low += 2 * drop

    by_loops: dict[int, int] = {}
    for m, v in vec.items():
        loops = closure_loops(matchings[m], n)
        by_loops[loops] = by_loops.get(loops, 0) + v
    # align every group to the lowest exponent delta^(n-1) can reach
    packed = sum(
        (v * _packed_delta_power(loops - 1, width)) << ((n - loops) * width)
        for loops, v in by_loops.items()
    )
    result = _unpack(packed, low - 2 * (n - 1), width)

    w = b.writhe()
    expected = (-1) ** (w % 2) * (-2) ** (_cycle_count(b.permutation()) - 1)
    at_one = sum(c for _, c in result.terms())
    if at_one != expected:
        raise RuntimeError(
            f"transfer bracket at A = 1 is {at_one}, expected {expected}: "
            f"slots of {width} bits overflowed"
        )
    return result
