"""Exact Laurent-polynomial and rational-slope arithmetic.

All coefficients are arbitrary-precision integers and all slope arithmetic
runs on ``fractions.Fraction``; nothing in this package touches floating
point.  A Laurent polynomial carries a variable tag, "A" for the bracket
variable or "t" for the Jones variable, and polynomials with different
tags are never equal.  Exponents may be negative.

Importing ``fractions`` also loads ``decimal``, and ``jones``, ``dt``
and ``gen`` never need either, so each function here that uses
``Fraction`` imports ``fractions`` when it runs, and ``Slope`` names it
only for type checkers.  Once the module is loaded, ``import fractions``
takes about a quarter of the time of ``from fractions import Fraction``,
and ``kirby`` formats tens of thousands of slopes a run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Mapping, TypeAlias

if TYPE_CHECKING:
    from fractions import Fraction

VAR_A = "A"
VAR_T = "t"


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
Slope: TypeAlias = "Fraction | _Infinity"


def parse_slope(text: str) -> Slope:
    """Parse ``p/q``, a bare integer, or ``inf``."""
    import fractions

    text = text.strip()
    if text == "inf":
        return INF
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return fractions.Fraction(int(num), int(den))
        return fractions.Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}: {exc}") from None


def format_slope(value: Slope) -> str:
    if value is INF:
        return "inf"
    import fractions

    if not isinstance(value, fractions.Fraction):
        raise TypeError(f"slope must be a Fraction or INF, got {value!r}")
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def is_integral(value: Slope) -> bool:
    import fractions

    return isinstance(value, fractions.Fraction) and value.denominator == 1


class LaurentPoly:
    """Immutable Laurent polynomial with integer coefficients.

    Stored sparsely as exponent -> coefficient with no zero entries.  It is
    the exact value both Jones routes decode into, so it carries no ring
    arithmetic: only negation, shifting and evaluation.
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

    def substitute(self, value: Fraction) -> Fraction:
        """Evaluate at an exact rational value.

        Rejects the infinite slope outright and rejects 0 when a negative
        exponent is present.
        """
        if value is INF:
            raise ValueError("cannot evaluate at inf")
        import fractions

        value = fractions.Fraction(value)
        if value == 0 and self._coeffs and min(self._coeffs) < 0:
            raise ValueError("evaluation at 0 with negative exponents present")
        total = fractions.Fraction(0)
        for exp, c in self._coeffs.items():
            total += c * value ** exp
        return total

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
