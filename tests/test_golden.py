"""The byte-identity corpus: every case in ``golden/cases.tsv`` through ``main``.

Each line of ``cases.tsv`` is tab-separated: the stdin file, the files
holding the expected stdout and stderr, the expected exit code, then the
argv, one argument per field.  All paths are relative to ``golden/``,
and ``empty`` stands for no input or no output.  The CI workflow runs the
same lines through the installed ``twistlink`` script.

The jones batches are the benchmark's ``jones_statesum`` and
``jones_transfer`` inputs at seeds 0 and 9, copied as text.  To record
bytes that a change means to alter, run this file as a script: it
rewrites each non-empty expected file from the current code.
"""

import io
import sys
from pathlib import Path

from twistlink.cli import main

GOLDEN = Path(__file__).parent / "golden"


def cases():
    for line in (GOLDEN / "cases.tsv").read_text(encoding="utf-8").splitlines():
        stdin, out, err, code, *argv = line.split("\t")
        yield stdin, out, err, int(code), argv


def run_case(stdin: str, argv: list[str]) -> tuple[str, str, int]:
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO((GOLDEN / stdin).read_text(encoding="utf-8"))
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        code = main(argv)
        return sys.stdout.getvalue(), sys.stderr.getvalue(), code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def test_cli_bytes_match_the_golden_corpus():
    wrong = []
    for stdin, out, err, code, argv in cases():
        got = run_case(stdin, argv)
        want = tuple((GOLDEN / f).read_text(encoding="utf-8") for f in (out, err)) + (code,)
        if got != want:
            wrong.append(f"{argv} < {stdin}")
    assert not wrong, "output differs from the corpus:\n" + "\n".join(wrong)


if __name__ == "__main__":
    for stdin, out, err, _, argv in cases():
        got_out, got_err, _ = run_case(stdin, argv)
        for name, data in ((out, got_out), (err, got_err)):
            if name != "empty":
                (GOLDEN / name).write_text(data, encoding="utf-8")
