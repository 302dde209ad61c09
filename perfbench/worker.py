"""One repetition of a workload, in a fresh interpreter.

Reads a JSON request on stdin and writes one JSON result on stdout.  It
is started by run.py with PYTHONPATH pointing at the checkout's src/.

The request names a mode:

* ``setup``: import twistlink.cli and build the run configuration the
  way ``twistlink.cli.main`` does, then stop;
* ``jones``: the same, then feed each batch line to ``cli.cmd_jones``
  one at a time, as ``twistlink jones -`` would, timing each item;
* ``kirby``: the same, then one ``cli.cmd_kirby`` call, timing each
  step from the H1 check that ends it.

With ``trace`` set, a Tracer wraps the layers before the first item.
"""

import contextlib
import io
import json
import resource
import sys
import time

perf = time.perf_counter

PROBE_EVERY_S = 0.05


def spin() -> float:
    """Time a fixed piece of pure-Python work: a probe of the CPU's speed.

    On a shared machine the same code runs up to a third faster or slower
    from one second to the next.  run.py scales every time by the probes
    taken around and between the items of a repetition.  The work mixes
    what the program does most: union-find over lists, dict counting
    and small tuples.
    """
    t0 = perf()
    hist = {}
    for rep in range(250):
        parent = list(range(32))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(0, 64, 2):
            a, b = find(i & 31), find((i * 7 + rep) & 31)
            if a != b:
                parent[b] = a
        key = (rep & 7, sum(1 for i in range(32) if parent[i] == i))
        hist[key] = hist.get(key, 0) + 1
        key = tuple(parent[:8])
        hist[key] = hist.get(key, 0) + 1
    return perf() - t0


class Probe:
    """Runs ``spin`` at item boundaries, at most every PROBE_EVERY_S.

    An item that starts when ``samples`` has i + 1 entries lies between
    probes i and i + 1: the last sample is taken after the last item.
    """

    def __init__(self):
        self.samples = [spin()]
        self.spent = 0.0
        self.last = perf()

    def tick(self) -> None:
        now = perf()
        if now - self.last >= PROBE_EVERY_S:
            self.samples.append(spin())
            self.last = perf()
            self.spent += self.last - now


def make_config(cli, argv):
    # mirrors cli.main: parse the command line, validate, build RunConfig
    ns = cli._build_parser().parse_args(argv)
    if ns.statesum_limit <= 0 or ns.tl_limit <= 0:
        raise SystemExit("limits must be positive")
    return cli.RunConfig(ns.statesum_limit, ns.tl_limit, ns.oracle)


def run_jones(cli, cfg, lines, tracer):
    out, err = io.StringIO(), io.StringIO()
    rows, codes, item_s, item_probe = [], [], [], []
    probe = Probe()
    with contextlib.redirect_stderr(err):
        first = perf()
        for k, line in enumerate(lines):
            probe.tick()
            item_probe.append(len(probe.samples) - 1)
            if tracer:
                tracer.item = k
            mark = out.tell()
            t0 = perf()
            codes.append(cli.cmd_jones(cfg, [line], out))
            item_s.append(perf() - t0)
            rows.append(out.getvalue()[mark:])
        last = perf()
    probe.samples.append(spin())
    return {
        "first": first,
        "batch_s": last - first - probe.spent,
        "probe_s": probe.samples,
        "item_s": item_s,
        "item_probe": item_probe,
        "rows": rows,
        "codes": codes,
        "stderr": err.getvalue(),
    }


def run_kirby(cli, cfg, pres, script, tracer):
    from twistlink import surgery

    # step k runs from the end of the H1 check before it (or of the probe
    # after that check) to the end of its own H1 check
    ends, resumes, item_probe = [], [], []
    h1 = surgery.h1
    probe = Probe()

    def stamped(p):
        result = h1(p)
        ends.append(perf())
        probe.tick()
        item_probe.append(len(probe.samples) - 1)
        resumes.append(perf())
        if tracer:
            tracer.item += 1
        return result

    surgery.h1 = stamped
    if tracer:
        tracer.item = 0  # parsing and the initial H1; step k is item k
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        first = perf()
        code = cli.cmd_kirby(cfg, pres, script, out)
        last = perf()
    surgery.h1 = h1
    probe.samples.append(spin())
    return {
        "first": first,
        "batch_s": last - first - probe.spent,
        "probe_s": probe.samples,
        "item_s": [end - start for start, end in zip(resumes, ends[1:])],
        "item_probe": item_probe[: len(ends) - 1],
        "text": out.getvalue(),
        "codes": [code],
        "stderr": err.getvalue(),
    }


def main():
    req = json.load(sys.stdin)
    probe_before = spin()
    t0 = perf()
    from twistlink import cli

    cfg = make_config(cli, req["argv"])
    result = {"setup_s": perf() - t0}
    if req["mode"] == "setup":
        result["probe_s"] = [probe_before, spin()]
    else:
        tracer = None
        if req["trace"]:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        if req["mode"] == "jones":
            result.update(run_jones(cli, cfg, req["lines"], tracer))
        else:
            result.update(run_kirby(cli, cfg, req["argv"][-2], req["argv"][-1], tracer))
        if tracer:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics()
            result["trace"] = tracer.chrome_trace(result["first"])
        kernels = sys.modules.get("twistlink.kernels")
        result["backend"] = getattr(kernels, "BACKEND", "none")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
