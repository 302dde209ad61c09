"""Seeded input generators for the three benchmark workloads.

Everything here is plain Python with no import of twistlink: the program
under test only ever sees the text these functions return.  The same
(workload, seed) pair always gives byte-identical text.

Each generator fixes the *shape* of its workload (how many items of each
crossing count and strand count, how long each continued-fraction chain
is) and lets the seed choose only the letters, signs and coefficients.
Run time is dominated by shape, so the figures of two seeds stay close
while their inputs differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("jones_statesum", "jones_transfer", "kirby_chain")

# jones_statesum: item counts for 4..13 crossings.  The state sum costs
# 2^c kernel steps, so the sorted item times climb in steps of two; the
# counts put the p50 rank (102 of 204) and the p90 rank (184) in the
# middle of the 8- and 12-crossing groups, away from a step.
STATESUM_PLAIN = dict(zip(range(4, 14), (22, 22, 22, 22, 24, 22, 22, 18, 18, 8)))
# (crossings, strands) of the items that take the seam split.  14..26
# crossings are left out on purpose: one such item costs 0.4 s to 15 min.
STATESUM_SEAM = ((27, 4), (27, 6), (28, 5), (28, 6))
STATESUM_LIMIT = 32

# jones_transfer: (strands, crossings) of the random words.
TRANSFER_RANDOM = (
    [(4, c) for c in range(26, 80, 2)]
    + [(5, c) for c in range(26, 62, 2)]
    + [(6, c) for c in range(25, 47, 2)]
    + [(7, c) for c in range(25, 35, 2)]
)
# Twisted torus knots T(p, q, r, s) and generalized ones: (p, q, ops),
# ops as in `twistlink gen gttk`.
TRANSFER_TTK = (
    (4, 7, 2, 3), (4, 9, 3, 1), (4, 11, 2, -3), (5, 6, 3, 2), (5, 7, 2, 4),
    (5, 8, 4, -1), (5, 9, 3, 1), (5, 11, 2, 2), (5, 12, 4, -1), (6, 5, 3, 2),
    (6, 7, 2, 3), (6, 5, 4, -1), (7, 4, 3, 2), (7, 5, 2, -3), (7, 4, 5, -1),
    (3, 14, 2, 3), (3, 16, 2, -4), (4, 13, 3, -1), (5, 13, 2, 3), (6, 7, 5, -1),
)
TRANSFER_GTTK = (
    (3, 10, ("stab+", ("twist", 2, 3, 1))),
    (3, 10, ("stab-", ("twist", 1, 3, 1))),
    (4, 7, ("stab+", ("twist", 3, 3, 1))),
    (4, 7, ("stab+", ("twist", 1, 2, 2), ("twist", 3, 3, -1))),
    (4, 5, ("stab-", "stab+", ("twist", 2, 4, 1))),
    (5, 6, ("stab+", ("twist", 4, 3, 1))),
    (5, 6, ("stab-", ("twist", 2, 3, 2))),
    (3, 7, ("stab+", "stab+", ("twist", 2, 4, 1))),
    (5, 3, ("stab+", "stab-", ("twist", 1, 3, 2))),
    (6, 5, ("stab+", ("twist", 5, 2, 3))),
    (3, 11, ("stab+", ("twist", 1, 4, 1))),
    (4, 9, ("stab-", ("twist", 2, 3, -2))),
    (2, 13, ("stab+", "stab+", ("twist", 1, 4, 1))),
    (5, 7, ("stab+", ("twist", 3, 3, -1))),
    (4, 11, ("stab+", ("twist", 2, 2, 3))),
    (3, 13, ("stab-", "stab-", ("twist", 3, 2, 2))),
    (6, 7, ("stab+",)),
    (5, 9, ("stab-", ("twist", 1, 2, -2))),
    (4, 7, ("stab+", "stab-", ("twist", 1, 6, 1))),
    (3, 17, ("stab+", ("twist", 2, 2, -3))),
)
# Fixed anchors from the ROADMAP: T(8,3,4,-2) (39 crossings after
# reduction, 8 strands) and T(5,12,3,4) (72 crossings).
TRANSFER_ANCHORS = (("T8_3_4_m2", (8, 3, 4, -2)), ("T5_12_3_4", (5, 12, 3, 4)))
TRANSFER_CROSSINGS = (25, 80)

# kirby_chain: eight integer-framed components under random linking, each
# with a rational meridian whose negative continued fraction has the
# length given here; 8 + 8 components grow to 8 + 8 + sum(L - 1) = 122.
KIRBY_CHAIN_LENGTHS = (14, 14, 14, 14, 14, 14, 15, 15)
KIRBY_SLIDES = 8


def _rng(workload: str, seed) -> random.Random:
    # string seeds hash with SHA-512, so the stream does not depend on
    # PYTHONHASHSEED or on the interpreter build
    return random.Random(f"{workload}:{seed}")


# -- braid words -------------------------------------------------------------


def render(strands: int, letters) -> str:
    return f"{strands}: " + " ".join(str(g) for g in letters)


def reduced_word(rng: random.Random, strands: int, crossings: int) -> tuple[int, ...]:
    """Random word with no adjacent inverse pair, cyclically.

    Free reduction leaves such a word unchanged, so its closure has
    exactly ``crossings`` crossings.
    """
    while True:
        word: list[int] = []
        while len(word) < crossings:
            g = rng.randint(1, strands - 1) * rng.choice((1, -1))
            if not word or word[-1] != -g:
                word.append(g)
        if word[0] != -word[-1]:
            return tuple(word)


def free_reduce_cyclic(letters) -> tuple[int, ...]:
    """Cancel adjacent inverse letters, the ends of the word included."""
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


def _cycle(first: int, width: int, reps: int) -> tuple[int, ...]:
    # (sigma_first ... sigma_{first+width-2})^reps, inverse letters for reps < 0
    if reps >= 0:
        return tuple(range(first, first + width - 1)) * reps
    return tuple(-i for i in range(first + width - 2, first - 1, -1)) * -reps


def ttk_word(p: int, q: int, r: int, s: int) -> tuple[int, tuple[int, ...]]:
    """(strands, letters) of T(p, q, r, s): s full twists on r strands of T(p, q)."""
    return p, _cycle(1, p, q) + _cycle(1, r, r * s)


def gttk_word(p: int, q: int, ops) -> tuple[int, tuple[int, ...]]:
    strands, letters = p, _cycle(1, p, q)
    for op in ops:
        if op in ("stab+", "stab-"):
            letters += ((strands if op == "stab+" else -strands),)
            strands += 1
        else:
            _, first, width, twists = op
            letters += _cycle(first, width, width * twists)
    return strands, letters


def _variant(rng: random.Random, strands: int, letters) -> tuple[int, ...]:
    """The word, its mirror, its flip (sigma_i <-> sigma_{n-i}) or both.

    The flip is conjugation by the half twist, so it keeps the link; the
    mirror inverts t.  Either maps the transfer route's states one to one,
    so every variant costs the same.
    """
    if rng.random() < 0.5:
        letters = tuple(-g for g in letters)
    if rng.random() < 0.5:
        letters = tuple((strands - abs(g)) * (1 if g > 0 else -1) for g in letters)
    return letters


# -- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class JonesBatch:
    """A `twistlink jones -` batch: CLI flags and one `name=braid` per line."""

    flags: tuple[str, ...]
    lines: tuple[str, ...]

    def text(self) -> str:
        return "".join(line + "\n" for line in self.lines)


def jones_statesum(seed: int) -> JonesBatch:
    rng = _rng("jones_statesum", seed)
    words = []
    for crossings, count in STATESUM_PLAIN.items():
        for _ in range(count):
            n = rng.randint(2, 6)
            words.append((n, reduced_word(rng, n, crossings)))
    for crossings, n in STATESUM_SEAM:
        words.append((n, reduced_word(rng, n, crossings)))
    rng.shuffle(words)
    lines = tuple(f"s{k:03d}={render(n, w)}" for k, (n, w) in enumerate(words))
    return JonesBatch(("--statesum-limit", str(STATESUM_LIMIT)), lines)


def jones_transfer(seed: int) -> JonesBatch:
    # The words come from a fixed stream and the seed picks a variant of
    # each, and the order: TL cost varies by a fifth between random words
    # of one size, which would move p50 and p90 from seed to seed.
    base = _rng("jones_transfer", "base")
    words = [(n, reduced_word(base, n, c)) for n, c in TRANSFER_RANDOM]
    words += [ttk_word(*spec) for spec in TRANSFER_TTK]
    words += [gttk_word(p, q, ops) for p, q, ops in TRANSFER_GTTK]
    rng = _rng("jones_transfer", seed)
    words = [(n, _variant(rng, n, free_reduce_cyclic(w))) for n, w in words]
    rng.shuffle(words)
    lines = [f"x{k:03d}={render(n, w)}" for k, (n, w) in enumerate(words)]
    for name, spec in TRANSFER_ANCHORS:
        lines.append(f"{name}={render(*ttk_word(*spec))}")
    for line in lines:
        n, w = line.split("=")[1].split(":")
        size = len(free_reduce_cyclic(int(g) for g in w.split()))
        if not TRANSFER_CROSSINGS[0] <= size <= TRANSFER_CROSSINGS[1]:
            raise ValueError(f"{line}: {size} crossings after reduction")
    return JonesBatch((), tuple(lines))


def cfrac_eval(terms) -> Fraction:
    """Value of the negative continued fraction a1 - 1/(a2 - 1/(...))."""
    val = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        val = a - 1 / val
    return val


def format_slope(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class KirbyJob:
    """A `twistlink kirby PRES SCRIPT` job.

    ``integer`` and ``rational`` name the base components; ``coefficients``
    holds each rational meridian's generated coefficient and ``lengths``
    its chain length; ``linking`` is the full linking matrix in the order
    integer + rational.
    """

    presentation: str
    script: str
    moves: tuple[str, ...]
    integer: tuple[str, ...]
    framings: tuple[int, ...]
    rational: tuple[str, ...]
    coefficients: tuple[Fraction, ...]
    lengths: tuple[int, ...]
    linking: tuple[tuple[int, ...], ...]


def kirby_chain(seed: int) -> KirbyJob:
    rng = _rng("kirby_chain", seed)
    k = len(KIRBY_CHAIN_LENGTHS)
    integer = tuple(f"K{i}" for i in range(1, k + 1))
    rational = tuple(f"m{i}" for i in range(1, k + 1))
    framings = tuple(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4, 5)) for _ in integer)
    coefficients = []
    for length in KIRBY_CHAIN_LENGTHS:
        terms = [rng.randint(-3, 3)] + [rng.randint(2, 4) for _ in range(length - 1)]
        coefficients.append(cfrac_eval(terms))
    size = 2 * k
    lk = [[0] * size for _ in range(size)]
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < 0.5:
                lk[i][j] = lk[j][i] = rng.choice((-2, -1, 1, 2))
        lk[i][k + i] = lk[k + i][i] = 1

    lines = [f"components {size}"]
    lines += [f"{name} {n} 1" for name, n in zip(integer, framings)]
    lines += [f"{name} {format_slope(c)} 1" for name, c in zip(rational, coefficients)]
    names = integer + rational
    for i in range(size):
        for j in range(i + 1, size):
            if lk[i][j]:
                lines.append(f"lk {names[i]} {names[j]} {lk[i][j]}")
    lines += [f"meridian {m} {K}" for m, K in zip(rational, integer)]

    moves = [f"chain {m}" for m in rational]
    for _ in range(KIRBY_SLIDES):
        a, b = rng.sample(integer, 2)
        moves.append(f"slide {a} {b} {rng.choice('+-')}")
    for m, length in zip(rational, KIRBY_CHAIN_LENGTHS):
        chain = [m] + [f"{m}.{i}" for i in range(2, length + 1)]
        moves += [f"slamdunk {chain[i]} {chain[i - 1]}" for i in range(length - 1, 0, -1)]
    return KirbyJob(
        "\n".join(lines) + "\n",
        "\n".join(moves) + "\n",
        tuple(moves),
        integer,
        framings,
        rational,
        tuple(coefficients),
        KIRBY_CHAIN_LENGTHS,
        tuple(tuple(row) for row in lk),
    )
