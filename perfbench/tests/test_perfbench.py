"""Self-tests of the benchmark harness: python3 -m pytest perfbench/tests -q"""

import io
import os
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from twistlink import (  # noqa: E402
    BraidWord,
    braid_closure,
    cfrac_expand,
    cli,
    format_jones_row,
    jones_tl,
    parse_braid,
)


def _text(workload, seed):
    job = getattr(workloads, workload)(seed)
    return job.text() if hasattr(job, "text") else job.presentation + job.script


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_gives_identical_batch_and_another_seed_another(workload):
    assert _text(workload, 7) == _text(workload, 7)
    assert _text(workload, 7) != _text(workload, 8)


def test_batches_have_the_documented_shape():
    sizes = {}
    for line in workloads.jones_statesum(3).lines:
        c = len(braid_closure(parse_braid(line.split("=")[1])).crossings)
        sizes[c] = sizes.get(c, 0) + 1
    want = dict(workloads.STATESUM_PLAIN)
    for c, _ in workloads.STATESUM_SEAM:
        want[c] = want.get(c, 0) + 1
    assert sizes == want
    assert len(workloads.jones_transfer(3).lines) >= 100
    kirby = workloads.kirby_chain(3)
    assert len(kirby.moves) == 122
    assert [len(cfrac_expand(c).terms) for c in kirby.coefficients] == list(kirby.lengths)


def test_modular_check_accepts_the_program_rows():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        size = rng.randint(0, 12) if n > 1 else 0
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(size))
        row = format_jones_row("b", jones_tl(BraidWord(n, letters)))
        assert check.jones_row_problem(row, check.jones_expected(n, letters)) is None


def test_checker_rejects_a_row_with_one_changed_coefficient():
    rows = (HERE / "reference" / "jones_transfer-seed0.txt").read_text().splitlines()
    lines = workloads.jones_transfer(0).lines
    for line, row in list(zip(lines, rows))[:10]:
        n, letters = line.split("=")[1].split(":")
        expected = check.jones_expected(int(n), tuple(int(g) for g in letters.split()))
        assert check.jones_row_problem(row, expected) is None
        head, body = row.split("coeffs=[")
        coeffs = body.rstrip("]").split(",")
        k = len(coeffs) // 2
        coeffs[k] = str(int(coeffs[k]) + 1)
        bad = f"{head}coeffs=[{','.join(coeffs)}]"
        assert check.jones_row_problem(bad, expected) is not None


def test_kirby_checker_passes_a_real_transcript_and_rejects_tampering(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "KIRBY_CHAIN_LENGTHS", (4, 3, 3))
    monkeypatch.setattr(workloads, "KIRBY_SLIDES", 2)
    job = workloads.kirby_chain(5)
    pres, script = tmp_path / "p", tmp_path / "s"
    pres.write_text(job.presentation)
    script.write_text(job.script)
    out = io.StringIO()
    assert cli.cmd_kirby(cli.RunConfig(24, 12, False), str(pres), str(script), out) == 0
    text = out.getvalue()
    assert check.check_kirby(job, text) == (0, [])

    h1 = next(line for line in text.splitlines() if line.startswith("H1 = "))
    last = text.rindex(h1)
    changed_h1 = text[:last] + "H1 = Z/2 + Z/3" + text[last + len(h1):]
    assert check.check_kirby(job, changed_h1)[0] == 1

    m = job.rational[-1]
    dunk = text.index(f"step {len(job.moves)}: slamdunk {m}.2 {m}")
    line_start = text.index(f"\n{m} ", dunk) + 1
    line_end = text.index("\n", line_start)
    wrong = text[:line_start] + f"{m} 1/2 1" + text[line_end:]
    failed, problems = check.check_kirby(job, wrong)
    assert failed == 1 and "came back as" in problems[0]


def test_self_time_on_a_synthetic_span_tree():
    now = [0.0]

    def advance(dt):
        now[0] += dt

    tr = Tracer(clock=lambda: now[0])
    leaf = tr.wrap(lambda: advance(2.0), "leaf")
    hot = tr.wrap_leaf(lambda x: advance(0.5), "hot")

    def mid_body():
        advance(1.0)
        leaf()
        hot(1)
        advance(3.0)
        leaf()

    mid = tr.wrap(mid_body, "mid")

    def top_body():
        advance(5.0)
        mid()
        hot(2)

    tr.wrap(top_body, "top")()
    assert tr.total == {"leaf": 4.0, "hot": 1.0, "mid": 8.5, "top": 14.0}
    assert tr.self_time == {"leaf": 4.0, "mid": 4.0, "top": 5.0}
    assert tr.calls == {"leaf": 2, "hot": 2, "mid": 1, "top": 1}
    names = [s[0] for s in tr.spans]
    parents = {s[0]: (names[s[3]] if s[3] >= 0 else None) for s in tr.spans}
    assert parents == {"top": None, "mid": "top", "leaf": "mid"}


def test_counters_repeat_exactly_across_two_traced_runs():
    lines = [line for line in workloads.jones_statesum(2).lines if len(line.split()) <= 10][:30]
    lines += list(workloads.jones_transfer(2).lines[:3])
    # default limits: the small braids take the state sum, the rest TL
    request = {"mode": "jones", "argv": ["jones", "-"], "lines": lines, "trace": True}
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    first, second = (run.run_worker(request, env)["layers"] for _ in range(2))
    counts = {k: v for k, v in first.items() if not k.endswith("_s")}
    assert counts == {k: v for k, v in second.items() if not k.endswith("_s")}
    assert counts["kernels.calls"] > 0 and counts["jones.route_tl"] > 0
    assert counts["poly.mul_calls"] > 0
