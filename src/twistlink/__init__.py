"""Exact invariants for twisted torus knots and framed-link calculus.

Braid-word generators for (generalized) twisted torus knots, the Jones
polynomial by two independent exact routes (Kauffman bracket state sum
and Temperley-Lieb transfer), canonical DT codes, and a Kirby-move
calculus on surgery presentations with first-homology verification.
"""

from .braid import (
    BraidWord,
    GeneralizedTTKSpec,
    Stabilize,
    TwistedTorusSpec,
    TwistRegion,
    conjugate,
    gttk_braid,
    insert_full_twists,
    markov_destabilize,
    markov_stabilize,
    mirror,
    parse_braid,
    render_braid,
    torus_braid,
    ttk_braid,
)
from .diagram import (
    Crossing,
    DTCode,
    PlanarDiagram,
    braid_closure,
    dt_code,
    parse_dt,
    render_dt,
)
from .jones import (
    LimitExceeded,
    RunTables,
    determinant,
    format_jones_row,
    jones,
    jones_tl,
    kauffman_bracket,
    mirror_poly,
)
from .poly import LaurentPoly

__version__ = "0.1.0"

__all__ = [
    "BraidWord",
    "Component",
    "ContinuedFraction",
    "Crossing",
    "DTCode",
    "GeneralizedTTKSpec",
    "Homology",
    "INF",
    "KirbyTrace",
    "LaurentPoly",
    "LimitExceeded",
    "PlanarDiagram",
    "RunTables",
    "Stabilize",
    "SurgeryPresentation",
    "TwistRegion",
    "TwistedTorusSpec",
    "blow_down",
    "blow_down_axis",
    "blow_up",
    "braid_closure",
    "cfrac_eval",
    "cfrac_expand",
    "conjugate",
    "determinant",
    "dt_code",
    "format_jones_row",
    "format_slope",
    "gttk_braid",
    "h1",
    "handle_slide",
    "insert_full_twists",
    "jones",
    "jones_tl",
    "kauffman_bracket",
    "kirby_reduce",
    "markov_destabilize",
    "markov_stabilize",
    "mirror",
    "mirror_poly",
    "parse_braid",
    "parse_dt",
    "parse_presentation",
    "parse_script",
    "parse_slope",
    "presentation",
    "rational_to_chain",
    "render_braid",
    "render_dt",
    "render_presentation",
    "slam_dunk",
    "torus_braid",
    "ttk_braid",
    "__version__",
]

# The surgery exports are the names of __all__ not bound above.  They load
# with twistlink.surgery on first access (PEP 562), so that importing the
# package, as every CLI command does, does not compile surgery.py for the
# commands that never use it.
_SURGERY_EXPORTS = frozenset(__all__) - globals().keys()


def __getattr__(name: str):
    if name != "surgery" and name not in _SURGERY_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    surgery = import_module(__name__ + ".surgery")
    bound = globals()
    for export in _SURGERY_EXPORTS:
        bound.setdefault(export, getattr(surgery, export))
    return bound[name]


def __dir__() -> list[str]:
    return sorted(globals().keys() | _SURGERY_EXPORTS | {"surgery"})
