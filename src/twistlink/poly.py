"""Exact Laurent polynomials with integer coefficients.

All coefficients are arbitrary-precision integers; nothing in this
package touches floating point.  A Laurent polynomial carries a variable
tag, "A" for the bracket variable or "t" for the Jones variable, and
polynomials with different tags are never equal.  Exponents may be
negative.

Both bracket routes carry a polynomial in A as one Python int of signed
``width``-bit slots one A^2 apart.  ``pack`` and ``unpack`` are that
format, and ``check_bracket`` guards each decoded bracket; none of them
knows a skein relation, so the routes still share no skein code.
"""

from __future__ import annotations

from typing import Iterator, Mapping

VAR_A = "A"
VAR_T = "t"


class LaurentPoly:
    """Immutable Laurent polynomial with integer coefficients.

    Stored sparsely as exponent -> coefficient with no zero entries.  It is
    the exact value both Jones routes decode into, so it carries no ring
    arithmetic: only negation and shifting.
    """

    __slots__ = ("variable", "_coeffs")

    def __init__(self, variable: str, coeffs: Mapping[int, int]):
        if variable not in (VAR_A, VAR_T):
            raise ValueError(f"unknown variable tag {variable!r}")
        if not isinstance(coeffs, Mapping):
            raise TypeError("coefficients must be a mapping of exponent to coefficient")
        for exp, c in coeffs.items():
            if not all(isinstance(v, int) and not isinstance(v, bool) for v in (exp, c)):
                raise TypeError(f"exponents and coefficients must be int, got {exp!r}: {c!r}")
        self.variable = variable
        self._coeffs = {exp: c for exp, c in coeffs.items() if c}

    @classmethod
    def _raw(cls, variable: str, table: dict[int, int]) -> "LaurentPoly":
        # Internal: table must already be pruned of zeros.
        p = cls.__new__(cls)
        p.variable = variable
        p._coeffs = table
        return p

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def terms(self) -> Iterator[tuple[int, int]]:
        """Yield (exponent, coefficient) pairs in ascending exponent order."""
        return iter(sorted(self._coeffs.items()))

    def coefficient(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def degree_span(self) -> tuple[int, int]:
        """(lowest, highest) exponent; the zero polynomial has no span."""
        if not self._coeffs:
            raise ValueError("zero polynomial has no degree span")
        return (min(self._coeffs), max(self._coeffs))

    # -- transforms --------------------------------------------------------

    def __neg__(self) -> "LaurentPoly":
        return self._raw(self.variable, {e: -c for e, c in self._coeffs.items()})

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by variable**k."""
        return self._raw(self.variable, {e + k: c for e, c in self._coeffs.items()})

    # -- equality / hashing -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.variable == other.variable
            and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        return hash((self.variable, tuple(sorted(self._coeffs.items()))))

    def __repr__(self) -> str:
        if self.is_zero:
            return f"LaurentPoly({self.variable!r}, 0)"
        parts = []
        for exp, c in self.terms():
            if exp == 0:
                parts.append(f"{c}")
            elif exp == 1:
                parts.append(f"{c}*{self.variable}")
            else:
                parts.append(f"{c}*{self.variable}^{exp}")
        return f"LaurentPoly({self.variable!r}, {' + '.join(parts)})"


# a run of at most this many slots is packed or unpacked one slot at a
# time; a longer one is cut in halves first, which keeps the work near
# linear in the int's size, where one slot at a time off the whole int
# is quadratic
_LEAF_SLOTS = 32


def pack(fields: list[int], width: int) -> int:
    """sum(fields[i] << i * width), the polynomial with these coefficients at 2^width."""
    if len(fields) > _LEAF_SLOTS:
        mid = len(fields) // 2
        return pack(fields[:mid], width) + (pack(fields[mid:], width) << mid * width)
    x = 0
    for f in reversed(fields):
        x = (x << width) + f
    return x


def unpack(packed: int, low: int, width: int) -> dict[int, int]:
    """Nonzero signed slots of ``packed`` by exponent, one A^2 apart from A^low.

    Each slot must lie in [-2^(width-1), 2^(width-1)).  Adding half =
    2^(width-1) to every slot makes each slot a field in [0, 2^width)
    that borrows from no other, so the int can be cut in halves that
    decode alone.  Two slots above the top bit absorb a negative top slot.
    """
    table: dict[int, int] = {}
    mask = (1 << width) - 1
    half = 1 << (width - 1)

    def cut(x: int, count: int, e: int) -> None:
        if count > _LEAF_SLOTS:
            mid = count // 2
            bits = mid * width
            cut(x & ((1 << bits) - 1), mid, e)
            cut(x >> bits, count - mid, e + 2 * mid)
            return
        for i in range(count):
            coef = (x & mask) - half
            if coef:
                table[e + 2 * i] = coef
            x >>= width

    if packed:
        count = packed.bit_length() // width + 2
        # half in every one of the count slots: a run of n halves doubles
        # while that stays within count, and a copy of it shifted up to end
        # at the top slot covers the rest; overlapping halves are the same bit
        fill, n = half, 1
        while 2 * n < count:
            fill |= fill << n * width
            n *= 2
        cut(packed + (fill | fill << (count - n) * width), count, low)
    return table


def check_bracket(
    table: dict[int, int], writhe: int, components: int, width: int, route: str
) -> LaurentPoly:
    """The decoded bracket ``table`` as a value in A, once it passes two checks.

    A wrong decode, such as one of a slot that overflowed, shows at one
    of two values every link's bracket is known at.  At A = 1 it must
    equal (-1)^w (-2)^(mu-1), with w the writhe and mu the number of
    components, because the Jones polynomial at t = 1 is (-2)^(mu-1).
    At A = zeta = e^(i pi/3), where -A^3 = 1 and delta = 1, it must equal
    1, because V(e^(2 pi i/3)) = 1 for every link (Jones, Bull. AMS 12,
    1985).  The second check reduces each exponent mod 6 and uses
    zeta^2 = zeta - 1, so it is exact in integers; it catches wrong
    decodes whose value at A = 1 is still right.  Raises RuntimeError,
    naming ``route`` and the slot ``width``, if either check fails.
    """
    # coefficient sums by exponent mod 6; zeta^3 = -1
    sums = [0] * 6
    for e, coef in table.items():
        sums[e % 6] += coef
    expected = (-1) ** (writhe % 2) * (-2) ** (components - 1)
    at_one = sum(sums)
    if at_one != expected:
        raise RuntimeError(
            f"{route} bracket at A = 1 is {at_one}, expected {expected}: "
            f"slots of {width} bits overflowed"
        )
    x = sums[0] - sums[2] - sums[3] + sums[5]
    y = sums[1] + sums[2] - sums[4] - sums[5]
    if (x, y) != (1, 0):
        sign = "-" if y < 0 else "+"
        raise RuntimeError(
            f"{route} bracket at A = e^(i pi/3) is {x} {sign} {abs(y)} zeta, expected 1: "
            f"slots of {width} bits overflowed"
        )
    return LaurentPoly._raw(VAR_A, table)
