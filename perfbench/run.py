"""twistlink benchmark: end-to-end and per-layer figures for one workload.

    python3 perfbench/run.py --workload jones_statesum --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's src/ directory.  Each repetition runs in a fresh interpreter
(worker.py), one item at a time, and its output is checked before any
figure is kept.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones from traced repetitions, alternated with
untraced ones to measure the tracing overhead.  The line before it is a
record of the environment and every sample.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"
DEFAULT_SEED = 0

# A repetition's times are scaled by PROBE_REF_S / (mean probe time of the
# repetition), i.e. reported at the speed where worker.spin takes 4 ms,
# about the usual speed of a 2-core cloud box at 2.0 GHz.
PROBE_REF_S = 0.004
SETUP_SAMPLES = 25  # fresh interpreters timed for setup_s in an untraced run
# repetitions run even when --seconds is already used up: untraced ones
# in an untraced run, and each kind in a traced run
MIN_REPS = 3
MIN_TRACED_REPS = 2
# no repetition starts that would likely end after this many seconds of
# measuring, so that a much slower program still ends its run in time
BUDGET_S = 140
WORKER_TIMEOUT_S = 150


def calib_s() -> float:
    """Time of 25 speed probes in a row; flags a slow or busy machine."""
    return sum(worker.spin() for _ in range(25))


def git_commit() -> str:
    # read .git directly: the benchmark may not run git or look outside ROOT
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def speed(res: dict) -> float:
    """Factor that scales one repetition's times to the reference speed."""
    return PROBE_REF_S / statistics.fmean(res["probe_s"])


def item_times(res: dict) -> list[float]:
    """Item times at the reference speed, each scaled by the probes on
    either side of it, since the speed changes within a repetition."""
    p = res["probe_s"]
    return [t * 2 * PROBE_REF_S / (p[i] + p[i + 1]) for t, i in zip(res["item_s"], res["item_probe"])]


def nearest_rank(values: list[float], q: float) -> float:
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


class Job:
    """Generated input of one workload, its worker request and its checker."""

    def __init__(self, workload: str, seed: int, scratch: Path):
        self.workload = workload
        if workload == "kirby_chain":
            self.kirby = workloads.kirby_chain(seed)
            scratch.mkdir(parents=True, exist_ok=True)
            pres, script = scratch / "chain.pres", scratch / "chain.kirby"
            pres.write_text(self.kirby.presentation)
            script.write_text(self.kirby.script)
            self.request = {"mode": "kirby", "argv": ["kirby", str(pres), str(script)]}
            self.items = len(self.kirby.moves)
            self.shape = {"components": len(self.kirby.integer) * 2, "steps": self.items}
            return
        batch = getattr(workloads, workload)(seed)
        self.request = {"mode": "jones", "argv": [*batch.flags, "jones", "-"], "lines": list(batch.lines)}
        self.items = len(batch.lines)
        self.expected = self._jones_expected(batch, seed)

    def _jones_expected(self, batch, seed):
        """Per item: the row the program must print (None when no
        reference exists) and what the modular check expects of it."""
        from twistlink import braid_closure, format_jones_row, jones_tl, parse_braid

        reference = None
        path = REFERENCE / f"{self.workload}-seed{seed}.txt"
        if path.is_file():
            reference = path.read_text().splitlines()
            if len(reference) != len(batch.lines):
                raise SystemExit(f"{path} does not match the generated batch")
        expected, crossings = [], []
        for k, line in enumerate(batch.lines):
            name, text = line.split("=", 1)
            b = parse_braid(text)
            crossings.append(len(braid_closure(b).crossings))
            if self.workload == "jones_statesum":
                row = format_jones_row(name, jones_tl(b))
            else:
                row = reference[k] if reference else None
            expected.append((row, check.jones_expected(b.strands, b.letters)))
        self.shape = {
            "items": len(crossings),
            "crossings_min": min(crossings),
            "crossings_max": max(crossings),
            "crossings_total": sum(crossings),
            "reference_rows": bool(reference) or self.workload == "jones_statesum",
        }
        return expected

    def check(self, res: dict) -> tuple[int, list[str]]:
        """(failed items, problems) of one worker result."""
        if self.workload == "kirby_chain":
            failed, problems = check.check_kirby(self.kirby, res["text"])
            if res["codes"] != [0] or res["stderr"]:
                problems.append(f"exit {res['codes']}: {res['stderr'].strip()[:200]}")
                failed = max(failed, 1)
            return failed, problems
        failed, problems = 0, []
        for k, (row, code) in enumerate(zip(res["rows"], res["codes"])):
            want, value = self.expected[k]
            row = row.rstrip("\n")
            if code != 0 or "\n" in row:
                problem = f"exit {code}"
            elif want is not None and row != want:
                problem = f"printed {row!r}, expected {want!r}"
            else:
                problem = check.jones_row_problem(row, value)
            if problem:
                failed += 1
                problems.append(f"item {k}: {problem}")
        if res["stderr"]:
            problems.append("stderr: " + res["stderr"].strip()[:200])
            failed = max(failed, 1)
        return failed, problems


def run_worker(request: dict, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(request),
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "twistlink" / "cli.py").is_file():
        print(f"error: no twistlink sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    scratch = OUT / f"run-{os.getpid()}"
    try:
        return measure(args, env, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, env, scratch: Path) -> int:
    calib_before = calib_s()
    job = Job(args.workload, args.seed, scratch)
    setup, plain, traced, problems = [], [], [], []
    attempted = failed = 0
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                res = run_worker({"mode": "setup", "argv": job.request["argv"]}, env)
                setup.append((res["setup_s"], speed(res)))
        start = last = time.perf_counter()
        while True:
            now = time.perf_counter()
            if args.trace:
                need_more = min(len(plain), len(traced)) < MIN_TRACED_REPS
            else:
                need_more = len(plain) < MIN_REPS
            if not need_more and now - start >= args.seconds:
                break
            if plain and (now - start) + (now - last) > BUDGET_S:
                break
            trace_now = bool(args.trace) and len(traced) < len(plain)
            attempted += job.items
            last = now
            res = run_worker(dict(job.request, trace=trace_now), env)
            res["failed"], why = job.check(res)
            failed += res["failed"]
            problems += why
            (traced if trace_now else plain).append(res)
            if res["failed"]:
                break
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        failed = max(failed, attempted, 1)
        attempted = max(attempted, 1)
        problems.append(str(exc))
    calib_after = calib_s()
    if args.trace and plain and not traced:
        problems.append(f"no traced repetition within {BUDGET_S} s")

    if args.trace:
        metrics = layer_metrics(plain, traced, problems)
    else:
        metrics = end_to_end(plain, setup)
    correct = failed == 0 and not problems
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "backend": plain[0].get("backend") if plain else None,
        "twistlink_pure": os.environ.get("TWISTLINK_PURE"),
        "commit": git_commit(),
        "calib_s": [calib_before, calib_after],
        "shape": job.shape,
        "reps": len(plain),
        "traced_reps": len(traced),
        "setup_samples_s": [raw for raw, _ in setup],
        "batch_samples_s": [r["batch_s"] for r in plain],
        "speed_factors": [speed(r) for r in plain + traced],
        "items_per_rep": job.items,
        "problems": problems[:20],
    }
    if traced:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(traced[0]["trace"]))
        record["trace_file"] = str(path.relative_to(ROOT))
    for line in problems[:10]:
        print("problem:", line)
    for name, m in metrics.items():
        print(f"{name:24s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(record))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


def end_to_end(reps: list[dict], setup: list[tuple[float, float]]) -> dict:
    """Medians over repetitions, every time at the reference speed."""

    def med(values):
        return statistics.median(values) if values else 0.0

    def items(q):
        pooled = [t for r in reps for t in item_times(r)]
        return 1e3 * nearest_rank(pooled, q) if pooled else 0.0

    return {
        "setup_s": {"value": med([raw * f for raw, f in setup]), "unit": "s"},
        "batch_s": {"value": med([r["batch_s"] * speed(r) for r in reps]), "unit": "s"},
        "item_p50_ms": {"value": items(0.5), "unit": "ms"},
        "item_p90_ms": {"value": items(0.9), "unit": "ms"},
        "peak_rss_mb": {"value": med([r["peak_rss_mb"] for r in reps]), "unit": "MB"},
    }


def layer_metrics(plain: list[dict], traced: list[dict], problems: list[str]) -> dict:
    """Medians of the traced repetitions; counts must agree exactly."""
    if not traced or not plain:
        return {}
    out = {}
    for name in traced[0]["layers"]:
        if name.endswith("_s"):
            value = statistics.median(r["layers"][name] * speed(r) for r in traced)
            out[name] = {"value": value, "unit": "s"}
        else:
            values = [r["layers"][name] for r in traced]
            if len(set(values)) != 1:
                problems.append(f"counter {name} differs between traced runs: {values}")
            out[name] = {"value": values[0], "unit": "count"}
    out["cli.items"] = {"value": len(traced[0]["item_s"]), "unit": "count"}
    out["cli.failed"] = {"value": traced[0]["failed"], "unit": "count"}
    out["trace.overhead_s"] = {
        "value": statistics.median(r["batch_s"] * speed(r) for r in traced)
        - statistics.median(r["batch_s"] * speed(r) for r in plain),
        "unit": "s",
    }
    return out


if __name__ == "__main__":
    sys.exit(main())
