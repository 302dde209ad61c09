"""Kauffman bracket and Jones polynomial by two independent routes.

Route one is the state sum (``twistlink.statesum``): every smoothing
state of the diagram is weighted A^(a-b) * delta^(loops-1), delta =
-A^2 - A^-2, and the weights are summed by contracting the diagram one
crossing at a time, each loop entering as a factor delta when it
closes.  Route two (``twistlink.transfer``) represents braid
letters in the Temperley-Lieb algebra (sigma_i -> A + A^-1 e_i) and
closes with the Markov trace.  The two modules share no skein logic, so
exact agreement between them is a meaningful check; the test suite
enforces it.

Both are normalized to bracket(unknot) = 1, giving V(unknot) = 1 after
the writhe correction V = (-A)^(-3w) * bracket.  Results carry variable
tag t when every A-exponent is divisible by 4 (knots, odd-component
links); otherwise the A-form is kept and rendered over half-integer
powers of t.  This module holds what the routes have in common: their
size limits, the tables a run keeps for them, the writhe normalization
and the row format.

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
from .poly import VAR_T, LaurentPoly

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
    v = bracket.shifted(-3 * w)
    return v if w % 2 == 0 else -v


def _as_t(p: LaurentPoly) -> LaurentPoly:
    """Convert from A to t = A^-4 when exponents allow, else keep A."""
    if any(e % 4 for e, _ in p.terms()):
        return p
    return LaurentPoly(VAR_T, {-e // 4: coef for e, coef in p.terms()})


def jones(
    d: PlanarDiagram, limit: int = DEFAULT_STATESUM_LIMIT, tables: RunTables | None = None
) -> LaurentPoly:
    """Jones polynomial of a closed diagram, state-sum route."""
    return _as_t(_writhe_normalize(kauffman_bracket(d, limit, tables), writhe(d)))


def jones_tl(
    b: BraidWord, limit: int = DEFAULT_TL_LIMIT, tables: RunTables | None = None
) -> LaurentPoly:
    """Jones polynomial of the closure of ``b``, Temperley-Lieb route."""
    n = b.strands
    if n > limit:
        raise LimitExceeded(f"{n} strands exceeds the transfer limit {limit}")
    from . import transfer

    bracket = transfer.bracket(b, None if tables is None else tables.transfer)
    return _as_t(_writhe_normalize(bracket, b.writhe()))


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
    component count) spans half-integer powers of t, written k/2, with
    the coefficient list stepping by whole powers of t.
    """
    if v.is_zero:
        raise ValueError("zero polynomial has no span")
    if v.variable == VAR_T:
        lo, hi = v.degree_span()
        coeffs = [v.coefficient(e) for e in range(lo, hi + 1)]
        span = f"({lo},{hi})"
    else:
        halves = {-e // 2: coef for e, coef in v.terms()}
        lo, hi = min(halves), max(halves)
        coeffs = [halves.get(k, 0) for k in range(lo, hi + 1, 2)]
        span = f"({lo}/2,{hi}/2)"
    body = ",".join(str(c) for c in coeffs)
    row = f"span={span} coeffs=[{body}]"
    return f"{name} {row}" if name else row
