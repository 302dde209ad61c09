"""Braid words, twisted torus knot generators, and Markov moves.

A braid on n strands is a word in the generators sigma_1 .. sigma_{n-1},
written as a tuple of nonzero integers: letter g > 0 means the strand in
position g crosses over the strand in position g+1, and g < 0 is the
inverse crossing.  Words read left to right, top to bottom; the closure
joins each bottom endpoint back to the top endpoint in the same position.

Handedness convention: positive letters are right-handed crossings, so a
positive number of full twists inserts positive letters.

The twisted torus knot T(p, q, r, s) is the closure of

    (sigma_1 ... sigma_{p-1})^q  (sigma_1 ... sigma_{r-1})^{r s}

that is, the (p, q) torus braid with s extra full twists on the first r
strands.  Mirrors are T(p, -q, r, -s).
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd
from operator import add
from typing import Union


def checked_record(typename: str, field_names: str) -> type:
    """The named-tuple base of a record with its own ``__new__``.

    The base's ``_make``, and so ``_replace``, builds through that
    ``__new__``: a changed copy is checked, with the same messages, as a
    new record is.
    """
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class BraidWord(checked_record("BraidWord", "strands letters")):
    """A braid word: ``strands`` and its ``letters``, checked when built."""

    __slots__ = ()

    def __new__(cls, strands: int, letters: tuple[int, ...] = ()):
        if not isinstance(strands, int) or isinstance(strands, bool):
            raise ValueError(f"strand count must be an integer, got {strands!r}")
        if strands < 1:
            raise ValueError(f"strand count must be >= 1, got {strands}")
        letters = tuple(letters)
        for g in letters:
            if not isinstance(g, int) or isinstance(g, bool) or g == 0:
                raise ValueError(f"letters must be nonzero integers, got {g!r}")
            if abs(g) > strands - 1:
                raise ValueError(f"letter {g} out of range for {strands} strands")
        return super().__new__(cls, strands, letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __reversed__(self):
        # len() counts letters, not fields, so the sequence fallback of
        # reversed() would index past the two fields and yield nothing
        raise TypeError(f"{type(self).__name__!r} object is not reversible")

    def writhe(self) -> int:
        """Sum of letter signs (the writhe of the closure)."""
        return sum(1 if g > 0 else -1 for g in self.letters)

    def permutation(self) -> list[int]:
        """Image of each starting position 1..n under the braid, 1-indexed.

        Entry i-1 is the bottom position where the strand entering at top
        position i exits.  Crossing handedness does not matter here.
        """
        slots = list(range(self.strands))  # slots[pos] = strand occupying pos
        for g in self.letters:
            i = abs(g) - 1
            slots[i], slots[i + 1] = slots[i + 1], slots[i]
        out = [0] * self.strands
        for final_pos, start in enumerate(slots):
            out[start] = final_pos + 1
        return out


def mirror(b: BraidWord) -> BraidWord:
    """Flip every crossing: the closure of the result is the mirror link."""
    return BraidWord(b.strands, tuple(-g for g in b.letters))


def conjugate(b: BraidWord, g: int) -> BraidWord:
    """The word g . b . g^{-1} (a Markov conjugation, no reduction applied)."""
    if g == 0 or abs(g) > b.strands - 1:
        raise ValueError(f"conjugating letter {g} out of range")
    return BraidWord(b.strands, (g,) + b.letters + (-g,))


def markov_stabilize(b: BraidWord, sign: int = 1) -> BraidWord:
    """Add a strand and one crossing sigma_n^{+-1} at the end of the word."""
    if sign not in (1, -1):
        raise ValueError("stabilization sign must be +1 or -1")
    n = b.strands
    return BraidWord(n + 1, b.letters + (sign * n,))


def markov_destabilize(b: BraidWord) -> BraidWord:
    """Inverse of stabilization.

    Requires that the last letter is +-(n-1) and that generator n-1 occurs
    nowhere else in the word.
    """
    n = b.strands
    if n < 2 or not b.letters:
        raise ValueError("nothing to destabilize")
    top = n - 1
    count = sum(1 for g in b.letters if abs(g) == top)
    if abs(b.letters[-1]) != top or count != 1:
        raise ValueError(
            f"sigma_{top} occurs {count} time(s); destabilization needs it "
            "exactly once, as the final letter"
        )
    return BraidWord(n - 1, b.letters[:-1])


def free_reduce_cyclic(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Cancel adjacent inverse letters, treating the word as a cycle.

    The closure identifies the end of the word with its start, so a
    trailing g and leading -g also cancel.  A word with nothing to cancel
    comes back as itself, the same tuple, after one scan for a pair that
    sums to zero.  Otherwise one pass with a stack leaves no adjacent
    inverse pair, and trimming cancelling ends off the result cannot make
    one, so the ends are trimmed once, with two indices.
    """
    letters = tuple(letters)
    ends_cancel = len(letters) > 1 and letters[0] == -letters[-1]
    if not ends_cancel and 0 not in map(add, letters, letters[1:]):
        return letters
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


# -- generators -------------------------------------------------------------


def torus_braid(p: int, q: int) -> BraidWord:
    """(sigma_1 ... sigma_{p-1})^q on p strands; q < 0 uses inverse letters."""
    if p < 2:
        raise ValueError(f"torus braid needs p >= 2, got {p}")
    if q >= 0:
        cycle = tuple(range(1, p))
        reps = q
    else:
        cycle = tuple(-i for i in range(p - 1, 0, -1))
        reps = -q
    return BraidWord(p, cycle * reps)


def insert_full_twists(b: BraidWord, first: int, width: int, s: int) -> BraidWord:
    """Append s full twists on strands first .. first+width-1.

    A full twist on w strands is (sigma_first ... sigma_{first+w-2})^w, so
    s twists append that cycle w*s times (inverse letters for s < 0).
    """
    if width < 2:
        raise ValueError(f"twist region width must be >= 2, got {width}")
    if first < 1 or first + width - 1 > b.strands:
        raise ValueError(
            f"twist region [{first}, {first + width - 1}] does not fit in "
            f"{b.strands} strands"
        )
    k = width * s
    if k >= 0:
        cycle = tuple(range(first, first + width - 1))
        reps = k
    else:
        cycle = tuple(-i for i in range(first + width - 2, first - 1, -1))
        reps = -k
    return BraidWord(b.strands, b.letters + cycle * reps)


def _check_torus(p: int, q: int) -> None:
    """The checks shared by both twisted torus specs, on their T(p, q) base."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if q == 0:
        raise ValueError("q must be nonzero")
    if gcd(p, abs(q)) != 1:
        raise ValueError(f"gcd(p, q) must be 1, got ({p}, {q})")


class TwistedTorusSpec(checked_record("TwistedTorusSpec", "p q r s")):
    """Parameters (p, q, r, s): s full twists on r strands of T(p, q).

    The classical regime is r < p; r = p is a full twist on every strand
    and larger r only arises through the generalized pathway.
    """

    __slots__ = ()

    def __new__(cls, p: int, q: int, r: int, s: int):
        _check_torus(p, q)
        if r < 2:
            raise ValueError(f"r must be >= 2, got {r}")
        if s == 0:
            raise ValueError("s must be nonzero (use a plain torus braid)")
        return super().__new__(cls, p, q, r, s)


def ttk_braid(spec: TwistedTorusSpec) -> BraidWord:
    """Braid word for the twisted torus knot T(p, q, r, s)."""
    if spec.r > spec.p:
        raise ValueError(
            f"r = {spec.r} exceeds p = {spec.p}; widen with gttk_braid instead"
        )
    base = torus_braid(spec.p, spec.q)
    return insert_full_twists(base, 1, spec.r, spec.s)


class Stabilize(checked_record("Stabilize", "sign")):
    """Markov stabilization step: add one strand and sigma_n^{sign}."""

    __slots__ = ()

    def __new__(cls, sign: int = 1):
        if sign not in (1, -1):
            raise ValueError("stabilization sign must be +1 or -1")
        return super().__new__(cls, sign)


class TwistRegion(checked_record("TwistRegion", "first width twists")):
    """Full-twist step: ``twists`` full twists on strands first..first+width-1."""

    __slots__ = ()

    def __new__(cls, first: int, width: int, twists: int):
        if first < 1:
            raise ValueError(f"first strand must be >= 1, got {first}")
        if width < 2:
            raise ValueError(f"width must be >= 2, got {width}")
        if twists == 0:
            raise ValueError("twist count must be nonzero")
        return super().__new__(cls, first, width, twists)


GeneralizedOp = Union[Stabilize, TwistRegion]


class GeneralizedTTKSpec(checked_record("GeneralizedTTKSpec", "p q ops")):
    """A torus knot base plus interleaved stabilizations and twist regions."""

    __slots__ = ()

    def __new__(cls, p: int, q: int, ops: tuple[GeneralizedOp, ...] = ()):
        ops = tuple(ops)
        _check_torus(p, q)
        strands = p
        for op in ops:
            if isinstance(op, Stabilize):
                strands += 1
            elif isinstance(op, TwistRegion):
                if op.first + op.width - 1 > strands:
                    raise ValueError(
                        f"twist region [{op.first}, {op.first + op.width - 1}] "
                        f"does not fit in {strands} strands"
                    )
            else:
                raise ValueError(f"unknown op {op!r}")
        return super().__new__(cls, p, q, ops)


def gttk_braid(spec: GeneralizedTTKSpec) -> BraidWord:
    """Braid word for a generalized twisted torus knot."""
    b = torus_braid(spec.p, spec.q)
    for op in spec.ops:
        if isinstance(op, Stabilize):
            b = markov_stabilize(b, op.sign)
        else:
            b = insert_full_twists(b, op.first, op.width, op.twists)
    return b


# -- text format --------------------------------------------------------------


def render_braid(b: BraidWord) -> str:
    """``n: g1 g2 ... gk`` (no letters after the colon for a trivial word)."""
    if not b.letters:
        return f"{b.strands}:"
    return f"{b.strands}: " + " ".join(str(g) for g in b.letters)


def parse_braid(text: str) -> BraidWord:
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"braid text needs 'n: letters', got {text!r}")
    try:
        strands = int(head.strip())
    except ValueError:
        raise ValueError(f"bad strand count {head.strip()!r}") from None
    letters = []
    for tok in rest.split():
        try:
            letters.append(int(tok))
        except ValueError:
            raise ValueError(f"bad letter {tok!r}") from None
    return BraidWord(strands, tuple(letters))
