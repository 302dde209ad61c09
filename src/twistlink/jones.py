"""Kauffman bracket and Jones polynomial by two independent routes.

Route one is the state sum (``twistlink.statesum``): every smoothing
state of the diagram is weighted A^(a-b) * delta^(loops-1), delta =
-A^2 - A^-2, and the weights are summed by contracting the diagram one
crossing at a time, each loop entering as a factor delta when it
closes.  Route two (``twistlink.transfer``) represents braid
letters in the Temperley-Lieb algebra (sigma_i -> A + A^-1 e_i) and
closes with the Markov trace.  The two modules share no skein logic,
only ``poly``'s codec for their packed brackets and the guard that
checks each decoded bracket, so exact agreement between them is a
meaningful check; the test suite enforces it.

Both are normalized to bracket(unknot) = 1, giving V(unknot) = 1 after
the writhe correction V = (-A)^(-3w) * bracket.  Results carry variable
tag t when every A-exponent is divisible by 4 (knots, odd-component
links); otherwise the A-form is kept and rendered over half-integer
powers of t.  This module holds what the routes have in common: their
size limits, the tables a run keeps for them, the writhe normalization
and the row format.

The normalization reads the bracket's exponent -> coefficient table once
and builds one new table, in which the shift by -3w, the sign (-1)^w
and the change to t (e -> -e/4) happen in a single comprehension.  It
skips the constructor's checks: every key and value is an int computed
from a checked table, and none is zero.  The row format looks
coefficients up in that table by exponent, so nothing between bracket
and row sorts the terms.

A CLI run is a fresh interpreter, and without bytecode caches it
compiles every module it imports, so this module imports the transfer
route only when a call first needs it: a run whose words all go to the
state sum, and ``kirby``, never compile ``transfer.py``.  The state sum,
the route of every word under the limit, is imported up front.
"""

from __future__ import annotations

from functools import cached_property

from . import statesum
from .braid import BraidWord
from .diagram import PlanarDiagram, writhe
from .poly import VAR_A, VAR_T, LaurentPoly

DEFAULT_STATESUM_LIMIT = 24
DEFAULT_TL_LIMIT = 12


class LimitExceeded(ValueError):
    """Requested computation is over the configured size limit."""


class RunTables:
    """The tables one run keeps for both routes, from one call to the next.

    ``statesum`` and ``transfer`` are each defined and owned by their
    route; what they keep does not depend on the call, so sharing them
    across the items of a batch changes no result.  ``transfer`` is
    built, importing its route, the first time it is read, and the same
    object is returned after that.  They are freed with this object when
    the run ends.  A tables object belongs to one thread.
    """

    def __init__(self) -> None:
        self.statesum = statesum.Tables()

    @cached_property
    def transfer(self):
        from . import transfer

        return transfer.Tables()


def kauffman_bracket(
    d: PlanarDiagram, limit: int = DEFAULT_STATESUM_LIMIT, tables: RunTables | None = None
) -> LaurentPoly:
    """Normalized Kauffman bracket of ``d`` by state-sum contraction.

    ``tables`` is the run's; a call without them starts from fresh ones.
    """
    c = len(d.crossings)
    if c > limit:
        raise LimitExceeded(
            f"{c} crossings exceeds the state-sum limit {limit}; "
            "raise the limit or use the transfer route"
        )
    return statesum.bracket(d, None if tables is None else tables.statesum)


def _writhe_normalize(bracket: LaurentPoly, w: int) -> LaurentPoly:
    """V = (-A)^(-3w) * bracket, in t = A^-4 when every exponent allows, else in A."""
    shift = -3 * w
    sign = -1 if w % 2 else 1
    table = bracket._coeffs
    if any((e + shift) % 4 for e in table):
        return LaurentPoly._raw(VAR_A, {e + shift: sign * c for e, c in table.items()})
    return LaurentPoly._raw(VAR_T, {-(e + shift) // 4: sign * c for e, c in table.items()})


def jones(
    d: PlanarDiagram, limit: int = DEFAULT_STATESUM_LIMIT, tables: RunTables | None = None
) -> LaurentPoly:
    """Jones polynomial of a closed diagram, state-sum route."""
    return _writhe_normalize(kauffman_bracket(d, limit, tables), writhe(d))


def jones_tl(
    b: BraidWord, limit: int = DEFAULT_TL_LIMIT, tables: RunTables | None = None
) -> LaurentPoly:
    """Jones polynomial of the closure of ``b``, Temperley-Lieb route."""
    n = b.strands
    if n > limit:
        raise LimitExceeded(f"{n} strands exceeds the transfer limit {limit}")
    from . import transfer

    bracket = transfer.bracket(b, None if tables is None else tables.transfer)
    return _writhe_normalize(bracket, b.writhe())


def mirror_poly(p: LaurentPoly) -> LaurentPoly:
    """Exponent negation; the Jones polynomial of the mirror link."""
    return LaurentPoly(p.variable, {-e: coef for e, coef in p.terms()})


def determinant(v: LaurentPoly) -> int:
    """|V(-1)|, the knot determinant; needs an integer-exponent value.

    At t = -1 each term c*t^e is c or -c by the parity of e, so the sum
    is computed in integers.
    """
    if v.variable != VAR_T:
        raise ValueError("determinant needs a t-tagged polynomial")
    return abs(sum(-c if e % 2 else c for e, c in v.terms()))


def format_jones_row(name: str | None, v: LaurentPoly) -> str:
    """One table row: ``name span=(m,M) coeffs=[...]``; name optional.

    A t-tagged value spans integer powers.  An A-tagged value (even
    component count, so every exponent is even) spans half-integer
    powers of t, written k/2, with the coefficient list stepping by
    whole powers of t.  Raises ValueError on the zero polynomial and on
    an A-tagged value whose exponents are not all even and equal mod 4,
    which such a row cannot show.
    """
    table = v._coeffs
    if not table:
        raise ValueError("zero polynomial has no span")
    lo, hi = min(table), max(table)
    if v.variable == VAR_T:
        coeffs = [table.get(e, 0) for e in range(lo, hi + 1)]
        span = f"({lo},{hi})"
    else:
        # t^(k/2) = A^(-2k): the half-powers run from -hi/2 to -lo/2, and
        # they step by whole powers of t only if the exponents do by 4
        if lo % 2 or any((e - lo) % 4 for e in table):
            raise ValueError("an A-tagged row needs even exponents that agree mod 4")
        coeffs = [table.get(e, 0) for e in range(hi, lo - 1, -4)]
        span = f"({-hi // 2}/2,{-lo // 2}/2)"
    body = ",".join(map(str, coeffs))
    row = f"span={span} coeffs=[{body}]"
    return f"{name} {row}" if name else row
