"""Layer tracing by rebinding the module attributes twistlink calls through.

Nothing under src/ knows about tracing.  ``Tracer.install`` replaces, for
example, ``twistlink.cli.jones`` (the name cli's router calls) and
``twistlink.jones.smoothing_histogram`` (the name the bracket calls) with
wrappers that time each call.  A name missing from the program is
skipped, so the tracer keeps working after a layer is deleted; its
metrics then read 0.

Each call keeps a frame on a stack.  When it returns, its duration is
added to its parent's child time, and its self time is its duration
minus its own child time.  Calls to ``LaurentPoly.__mul__`` and
``__add__`` are counted and timed but not kept as spans: the transfer
route makes millions of them.
"""

from __future__ import annotations

import importlib
import time


def _kernel_counts(tr, args, kwargs, result, before):
    boundary = args[3] if len(args) > 3 else kwargs.get("boundary", ())
    tr.counts["kernels.tangle_calls"] += 1 if boundary else 0
    tr.counts["kernels.states"] += 1 << len(args[1])


def _statesum_route(tr, args, kwargs, result, before):
    seam = tr.counts["kernels.tangle_calls"] > before
    tr.counts["jones.route_seam" if seam else "jones.route_plain"] += 1


def _parse_counts(tr, args, kwargs, result, before):
    tr.counts["braid.letters"] += len(result.letters)


def _closure_counts(tr, args, kwargs, result, before):
    tr.counts["diagram.crossings_in"] += len(args[0].letters)
    tr.counts["diagram.crossings_out"] += len(result.crossings)
    tr.counts["diagram.components"] += len(result.components)


def _h1_counts(tr, args, kwargs, result, before):
    dim = len(args[0].components)
    tr.counts["surgery.h1_max_dim"] = max(tr.counts["surgery.h1_max_dim"], dim)


def _tangle_calls(tr):
    return tr.counts["kernels.tangle_calls"]


# (module, attribute, span name, hook run after the call, snapshot taken before)
TARGETS = (
    ("twistlink.cli", "parse_braid", "braid.parse", _parse_counts, None),
    ("twistlink.cli", "braid_closure", "diagram.closure", _closure_counts, None),
    ("twistlink.cli", "jones", "jones.statesum", _statesum_route, _tangle_calls),
    ("twistlink.cli", "jones_tl", "jones.tl", None, None),
    ("twistlink.cli", "format_jones_row", "cli.format", None, None),
    ("twistlink.cli", "render_presentation", "cli.format", None, None),
    ("twistlink.cli", "parse_presentation", "surgery.parse", None, None),
    ("twistlink.cli", "parse_script", "surgery.parse", None, None),
    ("twistlink.jones", "smoothing_histogram", "kernels.histogram", _kernel_counts, None),
    ("twistlink.surgery", "apply_move", "surgery.move", None, None),
    ("twistlink.surgery", "h1", "surgery.h1", _h1_counts, None),
)
# hot leaf methods: timed and counted, never kept as spans
AGGREGATED = (
    ("twistlink.poly", "LaurentPoly", "__mul__", "poly.mul"),
    ("twistlink.poly", "LaurentPoly", "__add__", "poly.add"),
)
COUNTERS = (
    "kernels.tangle_calls",
    "kernels.states",
    "jones.route_plain",
    "jones.route_seam",
    "braid.letters",
    "diagram.crossings_in",
    "diagram.crossings_out",
    "diagram.components",
    "surgery.h1_max_dim",
)


class Tracer:
    """Per-name call counts, total and self times, and a span list.

    A span is (name, start, end, parent span index or -1, item index).
    ``item`` is set by the caller before each item, so all spans of one
    item share it.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.spans: list[tuple] = []
        self.item = -1
        # frame: [child seconds, index of the enclosing recorded span]
        self._stack = [[0.0, -1]]
        self._undo: list[tuple] = []

    def _account(self, name, d, child):
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + d
        self.self_time[name] = self.self_time.get(name, 0.0) + d - child

    def wrap(self, fn, name, hook=None, snapshot=None):
        """``fn`` timed as span ``name``; ``hook`` updates counters after it."""
        stack, spans, clock = self._stack, self.spans, self.clock

        def traced(*args, **kwargs):
            before = snapshot(self) if snapshot else None
            sid = len(spans)
            spans.append(None)
            frame = [0.0, sid]
            parent = stack[-1][1]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stack[-1][0] += t1 - t0
                spans[sid] = (name, t0, t1, parent, self.item)
                self._account(name, t1 - t0, frame[0])
            if hook:
                hook(self, args, kwargs, result, before)
            return result

        return traced

    def wrap_leaf(self, fn, name):
        """``fn`` timed and counted without a span; it must call no traced code."""
        stack, clock = self._stack, self.clock
        calls, total = self.calls, self.total
        calls[name] = 0
        total[name] = 0.0

        def traced(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                d = clock() - t0
                stack[-1][0] += d
                calls[name] += 1
                total[name] += d

        return traced

    def install(self) -> None:
        for module, attr, name, hook, snapshot in TARGETS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is not None:
                self._undo.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(fn, name, hook, snapshot))
        for module, cls_name, attr, name in AGGREGATED:
            cls = getattr(importlib.import_module(module), cls_name, None)
            fn = getattr(cls, attr, None) if cls is not None else None
            if fn is not None:
                self._undo.append((cls, attr, fn))
                setattr(cls, attr, self.wrap_leaf(fn, name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures by metric name (times in s, the rest counts)."""
        tot, own, calls, c = self.total, self.self_time, self.calls, self.counts
        return {
            "kernels.histogram_s": tot.get("kernels.histogram", 0.0),
            "kernels.calls": calls.get("kernels.histogram", 0),
            "kernels.tangle_calls": c["kernels.tangle_calls"],
            "kernels.states": c["kernels.states"],
            "jones.statesum_self_s": own.get("jones.statesum", 0.0),
            "jones.route_plain": c["jones.route_plain"],
            "jones.route_seam": c["jones.route_seam"],
            "jones.tl_self_s": own.get("jones.tl", 0.0),
            "jones.route_tl": calls.get("jones.tl", 0),
            "poly.mul_s": tot.get("poly.mul", 0.0),
            "poly.mul_calls": calls.get("poly.mul", 0),
            "poly.add_s": tot.get("poly.add", 0.0),
            "poly.add_calls": calls.get("poly.add", 0),
            "surgery.h1_s": tot.get("surgery.h1", 0.0),
            "surgery.h1_calls": calls.get("surgery.h1", 0),
            "surgery.h1_max_dim": c["surgery.h1_max_dim"],
            "surgery.move_s": tot.get("surgery.move", 0.0),
            "surgery.moves": calls.get("surgery.move", 0),
            "surgery.parse_s": tot.get("surgery.parse", 0.0),
            "braid.parse_s": tot.get("braid.parse", 0.0),
            "braid.letters": c["braid.letters"],
            "diagram.closure_s": tot.get("diagram.closure", 0.0),
            "diagram.crossings_in": c["diagram.crossings_in"],
            "diagram.crossings_out": c["diagram.crossings_out"],
            "diagram.components": c["diagram.components"],
            "cli.format_s": tot.get("cli.format", 0.0),
        }

    def chrome_trace(self, origin: float) -> dict:
        """Spans in the Chrome trace-event format (load in Perfetto)."""
        events = []
        for sid, (name, t0, t1, parent, item) in enumerate(self.spans):
            events.append(
                {
                    "name": name,
                    "cat": name.split(".")[0],
                    "ph": "X",
                    "ts": round((t0 - origin) * 1e6, 3),
                    "dur": round((t1 - t0) * 1e6, 3),
                    "pid": 1,
                    "tid": 1,
                    "args": {"id": sid, "parent": parent, "item": item},
                }
            )
        layers = {
            name: {
                "calls": self.calls[name],
                "total_s": self.total[name],
                "self_s": self.self_time.get(name, self.total[name]),
            }
            for name in sorted(self.calls)
        }
        return {"traceEvents": events, "otherData": {"layers": layers, "counts": self.counts}}
