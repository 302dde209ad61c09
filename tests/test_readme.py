"""README.md against what it shows: the golden corpus and the bench records.

Every ``$ twistlink ...`` line in a ``sh`` block is split as a shell
would (``#`` starts a comment) and must be a case of the golden corpus
(see ``test_golden.py``) with the same argv and no stdin.  The lines
shown under it, up to the next blank or ``$`` line, must be that case's
stdout.  The ``python`` block runs in a fresh namespace.  Every
``BENCH_<n>.json`` that README names is a committed record with a
``summary``, and each figure of README's table of medians is the median
of the record named before the table, rounded as shown.
"""

import json
import re
import shlex
from itertools import takewhile
from pathlib import Path

from test_golden import GOLDEN, cases

ROOT = Path(__file__).parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
RECORD = re.compile(r"BENCH_\d+\.json")


def fenced(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.S | re.M)


def shell_examples():
    """(argv, the output shown under it) for every ``$`` line of the sh blocks."""
    for block in fenced("sh"):
        lines = block.splitlines()
        for k, line in enumerate(lines):
            if line.startswith("$ "):
                shown = takewhile(lambda s: s and not s.startswith("$ "), lines[k + 1 :])
                yield shlex.split(line[2:], comments=True), "".join(s + "\n" for s in shown)


def test_shell_examples_are_golden_cases():
    stdout_of = {tuple(argv): out for stdin, out, _, _, argv in cases() if stdin == "empty"}
    examples = list(shell_examples())
    assert examples
    for argv, shown in examples:
        assert argv[0] == "twistlink", argv
        assert tuple(argv[1:]) in stdout_of, f"no golden case runs {argv}"
        if shown:
            golden = GOLDEN / stdout_of[tuple(argv[1:])]
            assert shown == golden.read_text(encoding="utf-8"), argv


def test_library_example_runs():
    (block,) = fenced("python")
    exec(compile(block, "README.md", "exec"), {})


def test_cited_bench_records_exist():
    names = sorted(set(RECORD.findall(README)))
    assert names
    for name in names:
        record = json.loads((ROOT / name).read_text(encoding="utf-8"))
        assert isinstance(record.get("summary"), list), name


def cells(line: str) -> list[str]:
    return [c.strip().strip("`") for c in line.strip("|").split("|")]


def test_figures_are_their_records_medians():
    lines = README.splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("| workload | seed |"))
    name = RECORD.findall("\n".join(lines[:start]))[-1]
    summary = json.loads((ROOT / name).read_text(encoding="utf-8"))["summary"]
    metrics = {(s["workload"], s["seed"]): s["metrics"] for s in summary}
    header = cells(lines[start])
    rows = list(takewhile(lambda line: line.startswith("|"), lines[start + 2 :]))
    assert rows
    for line in rows:
        row = dict(zip(header, cells(line)))
        medians = metrics[row.pop("workload"), int(row.pop("seed"))]
        for metric, shown in row.items():
            median = medians[metric]["change_q1_median_q3"][1]
            assert float(shown) == round(median, len(shown.partition(".")[2])), (line, metric)
