"""Line-oriented batch front end.

Every subcommand reads plain text and writes plain text, one logical
result per line, in input order; identical inputs and limits produce
identical bytes.  Per-item failures go to stderr and flip the exit code
without stopping the rest of the batch.
"""

from __future__ import annotations

import argparse
import sys
from typing import TextIO

from .braid import (
    BraidWord,
    GeneralizedTTKSpec,
    Stabilize,
    TwistedTorusSpec,
    TwistRegion,
    checked_record,
    free_reduce_cyclic,
    gttk_braid,
    parse_braid,
    render_braid,
    ttk_braid,
)
from .diagram import braid_closure, dt_code, render_dt
from .jones import (
    DEFAULT_STATESUM_LIMIT,
    DEFAULT_TL_LIMIT,
    RunTables,
    format_jones_row,
    jones,
    jones_tl,
)

# Only kirby, homology and cfrac use surgery, so the other commands never
# compile surgery.py: these names become globals of this module when one
# of those commands, or an attribute lookup on the module, first needs them.
_SURGERY_NAMES = (
    "cfrac_expand",
    "h1",
    "kirby_reduce",
    "parse_presentation",
    "parse_script",
    "parse_slope",
    "render_presentation",
)


def _bind_surgery() -> None:
    # setdefault keeps a name rebound on this module before the first use,
    # such as a wrapper that times the calls made through it.  A name is
    # read from twistlink.surgery once, at that first use, so a wrapper set
    # on twistlink.surgery then is the one this module calls from then on,
    # even after surgery's own name is restored; one set there later is
    # not seen.  To wrap these calls, rebind the name on this module.
    from . import surgery

    bound = globals()
    for name in _SURGERY_NAMES:
        bound.setdefault(name, getattr(surgery, name))


def __getattr__(name: str):
    if name not in _SURGERY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_surgery()
    return globals()[name]


class RunConfig(checked_record("RunConfig", "statesum_limit tl_limit oracle")):
    """The options of one run, and ``tables``: not an option, but the route
    tables of this run, shared by its items and left out of equality and
    repr.  Like the fields, ``tables`` cannot be assigned."""

    def __new__(cls, statesum_limit: int, tl_limit: int, oracle: bool):
        self = super().__new__(cls, statesum_limit, tl_limit, oracle)
        object.__setattr__(self, "tables", RunTables())
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")


def _split_name(item: str) -> tuple[str | None, str]:
    # braid text never contains '=', so a leading NAME= prefix is unambiguous
    name, sep, rest = item.partition("=")
    if sep and ":" not in name:
        return name.strip(), rest.strip()
    return None, item.strip()


def _read_items(raw: list[str]) -> list[tuple[str | None, str]]:
    if raw == ["-"]:
        raw = [line for line in sys.stdin.read().splitlines()]
    items = []
    for entry in raw:
        text = entry.split("#", 1)[0].strip()
        if text:
            items.append(_split_name(text))
    return items


def _jones_of_text(text: str, cfg: RunConfig):
    # route on the crossing count after cyclic free reduction, the count
    # the closure has; both routes take the reduced word, and only the
    # state sum needs the closure itself.  A word with nothing to cancel
    # is reduced already, and the checked word is used as it is.
    b = parse_braid(text)
    letters = free_reduce_cyclic(b.letters)
    reduced = b if letters is b.letters else BraidWord(b.strands, letters)
    if cfg.oracle or len(reduced) <= cfg.statesum_limit:
        return jones(braid_closure(reduced), limit=len(reduced), tables=cfg.tables)
    return jones_tl(reduced, limit=cfg.tl_limit, tables=cfg.tables)


def cmd_gen(cfg: RunConfig, args: list[str], out: TextIO) -> int:
    try:
        if not args:
            raise ValueError("expected 'ttk p q r s' or 'gttk p q [ops...]'")
        kind, rest = args[0], args[1:]
        if kind == "ttk":
            if len(rest) != 4:
                raise ValueError("ttk takes exactly four integers: p q r s")
            p, q, r, s = (int(v) for v in rest)
            b = ttk_braid(TwistedTorusSpec(p, q, r, s))
        elif kind == "gttk":
            if len(rest) < 2:
                raise ValueError("gttk needs p q before any ops")
            p, q = int(rest[0]), int(rest[1])
            ops = []
            toks = rest[2:]
            while toks:
                t = toks.pop(0)
                if t in ("stab+", "stab-"):
                    ops.append(Stabilize(1 if t == "stab+" else -1))
                elif t == "twist":
                    if len(toks) < 3:
                        raise ValueError("twist takes three integers: first width s")
                    f, w, s = (int(toks.pop(0)) for _ in range(3))
                    ops.append(TwistRegion(f, w, s))
                else:
                    raise ValueError(f"unknown op {t!r}; expected stab+, stab- or twist")
            b = gttk_braid(GeneralizedTTKSpec(p, q, tuple(ops)))
        else:
            raise ValueError(f"unknown generator {kind!r}; expected ttk or gttk")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render_braid(b), file=out)
    return 0


def _each_item(raw_items: list[str], compute, emit) -> int:
    # the loop of jones, dt and fingerprint: emit(name, text, value) for
    # each item whose compute(name, text) returns, in input order; one
    # that raises ValueError prints "label: error: msg" on stderr instead,
    # and the batch goes on.  Returns the exit code.
    failed = 0
    for name, text in _read_items(raw_items):
        try:
            value = compute(name, text)
        except ValueError as exc:
            print(f"{name or text}: error: {exc}", file=sys.stderr)
            failed += 1
            continue
        emit(name, text, value)
    return 1 if failed else 0


def cmd_jones(cfg: RunConfig, raw_items: list[str], out: TextIO) -> int:
    return _each_item(
        raw_items,
        lambda name, text: format_jones_row(name, _jones_of_text(text, cfg)),
        lambda name, text, row: print(row, file=out),
    )


def cmd_dt(cfg: RunConfig, raw_items: list[str], out: TextIO) -> int:
    return _each_item(
        raw_items,
        lambda name, text: dt_code(braid_closure(parse_braid(text))),
        lambda name, text, code: print(render_dt(code, name), file=out),
    )


def cmd_kirby(cfg: RunConfig, pres_path: str, script_path: str | None, out: TextIO) -> int:
    _bind_surgery()
    try:
        with open(pres_path, encoding="utf-8") as fh:
            p = parse_presentation(fh.read())
        moves = []
        if script_path is not None:
            with open(script_path, encoding="utf-8") as fh:
                moves = parse_script(fh.read())
        _, trace = kirby_reduce(p, moves)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("initial", file=out)
    print(render_presentation(p), file=out)
    print(f"H1 = {trace.initial_h1.render()}", file=out)
    for k, step in enumerate(trace.steps, start=1):
        print(file=out)
        print(f"step {k}: {step.move}", file=out)
        print(render_presentation(step.result), file=out)
        print(f"H1 = {step.h1.render()}", file=out)
        if step.note:
            print(f"note: {step.note}", file=out)
    return 0


def cmd_cfrac(cfg: RunConfig, slope: str, out: TextIO) -> int:
    _bind_surgery()
    try:
        cf = cfrac_expand(parse_slope(slope))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("[" + ",".join(str(a) for a in cf.terms) + "]", file=out)
    return 0


def cmd_homology(cfg: RunConfig, pres_path: str, out: TextIO) -> int:
    _bind_surgery()
    try:
        with open(pres_path, encoding="utf-8") as fh:
            p = parse_presentation(fh.read())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"H1 = {h1(p).render()}", file=out)
    return 0


def cmd_fingerprint(cfg: RunConfig, raw_items: list[str], out: TextIO) -> int:
    groups: dict[tuple, list[str]] = {}

    def fingerprint(name, text):
        v = _jones_of_text(text, cfg)
        return v.variable, tuple(v.terms())

    code = _each_item(
        raw_items,
        fingerprint,
        lambda name, text, key: groups.setdefault(key, []).append(name or text),
    )
    for k, labels in enumerate(groups.values(), start=1):
        tag = " (candidate-equal)" if len(labels) > 1 else ""
        print(f"group {k}{tag}: " + ", ".join(labels), file=out)
    print(
        "note: equal fingerprints suggest, but do not prove, the same knot",
        file=out,
    )
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistlink",
        description="Braid generators, Jones polynomials, DT codes, and "
        "framed-link surgery scripts for twisted torus knots.",
    )
    parser.add_argument(
        "--statesum-limit",
        type=int,
        default=DEFAULT_STATESUM_LIMIT,
        metavar="N",
        help="largest crossing count sent to the bracket state sum",
    )
    parser.add_argument(
        "--tl-limit",
        type=int,
        default=DEFAULT_TL_LIMIT,
        metavar="N",
        help="largest strand count sent to the Temperley-Lieb transfer route",
    )
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="force the state-sum path regardless of crossing count",
    )
    parser.add_argument(
        "--output", metavar="FILE", help="write results to FILE instead of stdout"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="emit a braid word for ttk/gttk parameters")
    g.add_argument("args", nargs="+", metavar="ARG")

    for cname, help_text in (
        ("jones", "Jones polynomial table rows for braid closures"),
        ("dt", "canonical DT codes for braid closures"),
        ("fingerprint", "group braids by Jones fingerprint"),
    ):
        c = sub.add_parser(cname, help=help_text)
        c.add_argument(
            "items",
            nargs="+",
            metavar="BRAID",
            help="braid text 'n: g1 g2 ...', optionally NAME=...; '-' reads lines from stdin",
        )

    k = sub.add_parser("kirby", help="run a surgery move script with H1 checks")
    k.add_argument("presentation", help="presentation file")
    k.add_argument("script", nargs="?", help="move script file (omit to just echo)")

    c = sub.add_parser("cfrac", help="negative continued fraction of a slope")
    c.add_argument("slope", help="rational like 2/7 (use -- before negative slopes)")

    hm = sub.add_parser("homology", help="H1 of a presentation file")
    hm.add_argument("presentation", help="presentation file")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.statesum_limit <= 0 or ns.tl_limit <= 0:
        parser.error("limits must be positive")
    cfg = RunConfig(ns.statesum_limit, ns.tl_limit, ns.oracle)
    out = sys.stdout
    opened = None
    if ns.output:
        try:
            opened = out = open(ns.output, "w", encoding="utf-8")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    try:
        if ns.command == "gen":
            return cmd_gen(cfg, ns.args, out)
        if ns.command == "jones":
            return cmd_jones(cfg, ns.items, out)
        if ns.command == "dt":
            return cmd_dt(cfg, ns.items, out)
        if ns.command == "kirby":
            return cmd_kirby(cfg, ns.presentation, ns.script, out)
        if ns.command == "cfrac":
            return cmd_cfrac(cfg, ns.slope, out)
        if ns.command == "homology":
            return cmd_homology(cfg, ns.presentation, out)
        return cmd_fingerprint(cfg, ns.items, out)
    finally:
        if opened is not None:
            opened.close()


if __name__ == "__main__":
    sys.exit(main())
