"""The byte-identity corpus: every case in ``golden/cases.tsv`` through ``main``.

Each line of ``cases.tsv`` is tab-separated: the stdin file, the files
holding the expected stdout and stderr, the expected exit code, then the
argv, one argument per field.  Every case runs from inside ``golden/``,
so stdin, the expected files and the file arguments of ``kirby`` and
``homology`` are all paths relative to it; ``empty`` stands for no input
or no output.  The CI workflow runs the same lines, from the same
directory, through the installed ``twistlink`` script.

The cases cover every subcommand:

* ``jones -`` and ``fingerprint -`` on the benchmark's ``jones_statesum``
  and ``jones_transfer`` inputs at seeds 0 and 9, copied as text, with no
  flag, ``--oracle`` and ``--statesum-limit 32``; ``dt -`` on the two
  state-sum batches;
* every README example, and rows that each route must print alike:
  T(2,41) and 40 split Hopf links, whose brackets are wider than one
  packed word, with and without ``--oracle``;
* ``homology`` and ``kirby`` on ``p.pres``: a chain expanded and
  slam-dunked back (``s.kirby``), and blow-ups, a blow-down that prints
  its note and a slide (``blowup.kirby``);
* one-line errors: bad braid items for ``jones``, ``fingerprint`` and
  ``dt``, each of ``gen``'s argument errors, bad slopes for ``cfrac``
  (one of them an empty argument), a bad presentation line, a failing
  kirby step and the transfer limit.

To record bytes that a change means to alter, run this file as a
script: it rewrites each non-empty expected file from the current code.
"""

import io
import os
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
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        sys.stdin = io.StringIO(Path(stdin).read_text(encoding="utf-8"))
        sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
        code = main(argv)
        return sys.stdout.getvalue(), sys.stderr.getvalue(), code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
        os.chdir(cwd)


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
