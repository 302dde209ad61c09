"""Exact Laurent polynomials with integer coefficients.

All coefficients are arbitrary-precision integers; nothing in this
package touches floating point.  A Laurent polynomial carries a variable
tag, "A" for the bracket variable or "t" for the Jones variable, and
polynomials with different tags are never equal.  Exponents may be
negative.
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
