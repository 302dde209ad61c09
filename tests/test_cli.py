import gc
import hashlib
import io
import os
import runpy
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

import twistlink
from twistlink import cli
from twistlink.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_ttk_gcd_error(capsys):
    code, out, err = run(capsys, "gen", "ttk", "4", "2", "3", "1")
    assert code == 1 and not out
    assert "gcd" in err


def test_gen_unknown_op(capsys):
    code, out, err = run(capsys, "gen", "gttk", "3", "2", "spin")
    assert code == 1 and "unknown op" in err


def test_gen_without_arguments(capsys):
    # argparse asks for one argument; a library caller can pass none
    out = io.StringIO()
    assert cli.cmd_gen(cli.RunConfig(24, 12, False), [], out) == 1
    assert not out.getvalue()
    assert capsys.readouterr().err == "error: expected 'ttk p q r s' or 'gttk p q [ops...]'\n"


def test_jones_rows(capsys):
    code, out, err = run(
        capsys, "jones", "trefoil=2: 1 1 1", "1:", "hopf=2: 1 1"
    )
    assert code == 0 and not err
    assert out.splitlines() == [
        "trefoil span=(1,4) coeffs=[1,0,1,-1]",
        "span=(0,0) coeffs=[1]",
        "hopf span=(1/2,5/2) coeffs=[-1,0,-1]",
    ]


def test_jones_conjugate_rows_identical(capsys):
    _, out1, _ = run(capsys, "jones", "3: 1 1 1 2")
    _, out2, _ = run(capsys, "jones", "3: 2 1 1 1 2 -2")
    assert out1 == out2


def test_jones_deterministic_bytes(capsys):
    args = ("jones", "a=2: 1 1 1 1 1", "b=3: 1 -2 1 -2")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_jones_limit_error_batch(capsys):
    code, out, err = run(
        capsys, "--tl-limit", "2", "--statesum-limit", "4", "jones",
        "big=3: 1 2 1 2 1 2", "unknot=1:",
    )
    assert code == 1
    assert "big: error:" in err and "transfer limit" in err
    assert out.splitlines() == ["unknot span=(0,0) coeffs=[1]"]


def test_jones_oracle_flag_matches_tl(capsys):
    word = "3: " + " ".join(["1", "2"] * 14)
    _, out_tl, _ = run(capsys, "--statesum-limit", "4", "jones", word)
    _, out_sum, _ = run(capsys, "--oracle", "jones", word)
    assert out_tl == out_sum


def test_transfer_route_builds_no_closure(capsys, monkeypatch):
    # T(3,14), 28 crossings, over the state-sum limit: V = t^13 + t^15 - t^28
    word = "3: " + " ".join(["1", "2"] * 14)

    def no_closure(b):
        raise AssertionError("the transfer route needs no closure")

    monkeypatch.setattr(cli, "braid_closure", no_closure)
    code, out, err = run(capsys, "jones", word)
    assert code == 0 and not err
    assert out == "span=(13,28) coeffs=[1,0,1" + ",0" * 12 + ",-1]\n"


def test_jones_oracle_on_twisted_torus_knot(capsys):
    # T(8,3,4,-2): 39 crossings after free reduction, 8 strands
    word = "8: " + " ".join([str(g) for g in list(range(1, 8)) * 3 + [-3, -2, -1] * 8])
    _, out_tl, _ = run(capsys, "--statesum-limit", "4", "jones", word)
    start = time.perf_counter()
    code, out_sum, err = run(capsys, "--oracle", "jones", word)
    elapsed = time.perf_counter() - start
    assert code == 0 and not err
    assert out_sum == out_tl
    assert elapsed < 5.0, elapsed


def test_jones_seam_word_in_bounded_time(capsys):
    # 200,001 letters that reduce to one: the router reduces the word in
    # one linear pass, and the closure is built from the reduced letters
    k = 100_000
    start = time.perf_counter()
    code, out, err = run(capsys, "jones", "3: " + "2 " * k + "1 " + "-2 " * k)
    elapsed = time.perf_counter() - start
    assert code == 0 and not err
    assert out == "span=(-1/2,1/2) coeffs=[-1,-1]\n"
    assert elapsed < 10.0, elapsed


def test_state_sum_word_is_reduced_once(capsys, monkeypatch):
    # the router reduces the word and routes the reduced word, so the
    # closure's own reduction is given one with no cancelling pair
    from twistlink import diagram

    seen = []
    reduce = diagram.free_reduce_cyclic

    def recording(letters):
        seen.append(letters)
        return reduce(letters)

    monkeypatch.setattr(diagram, "free_reduce_cyclic", recording)
    words = ("3: 2 1 -1 1 2 2 -2", "3: -2 1 1 1 2", "2: 1 -1 1 1 -1 1")
    code, out, err = run(capsys, "jones", *words)
    assert code == 0 and not err
    assert seen == [(2, 1, 2), (1, 1, 1), (1, 1)]
    assert out == run(capsys, "jones", "3: 2 1 2", "3: 1 1 1", "2: 1 1")[1]


def test_dt_rejects_links(capsys):
    code, out, err = run(capsys, "dt", "2: 1 1")
    assert code == 1 and "2 components" in err


def test_stdin_batch(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("t=2: 1 1 1\n\n# note\nf=3: 1 -2 1 -2\n"))
    code, out, err = run(capsys, "dt", "-")
    assert code == 0
    assert out.splitlines() == ["t: 4 6 2", "f: 4 6 8 2"]


# both routes, with strand counts that repeat: T(2,5), T(3,4) and a
# 3-strand figure eight go to the state sum, the rest over 24 crossings
# to the transfer route
MIXED_BATCH = [
    "2: 1 1 1 1 1",
    "a=4: " + " ".join(["1", "2", "3"] * 9),
    "3: 1 2 1 2 1 2 1 2",
    "b=4: " + " ".join(["1", "-2", "3", "2"] * 7),
    "3: 1 -2 1 -2",
    "c=5: " + " ".join(["1", "2", "3", "4"] * 7 + ["1", "1"]),
    "3: " + " ".join(["1", "2"] * 14),
    "a=4: " + " ".join(["1", "2", "3"] * 9),
]


def test_batch_rows_equal_single_item_rows(capsys):
    singles = [run(capsys, "jones", item)[1] for item in MIXED_BATCH]
    for order in (1, -1):
        code, out, err = run(capsys, "jones", *MIXED_BATCH[::order])
        assert code == 0 and not err
        assert out == "".join(singles[::order])


def test_batch_rows_do_not_depend_on_the_first_route(capsys):
    # a fresh CLI process imports the transfer route at its first TL item;
    # in one order the batch starts on the state sum, in the other on TL,
    # and --oracle never loads TL
    env = dict(os.environ, PYTHONPATH=str(Path(twistlink.__file__).parents[1]))
    for command in ("jones", "fingerprint"):
        for order in (1, -1):
            batch = MIXED_BATCH[::order]
            code, expected, err = run(capsys, command, *batch)
            assert code == 0 and not err
            for flags in ((), ("--oracle",)):
                proc = subprocess.run(
                    [sys.executable, "-S", "-m", "twistlink", *flags, command, "-"],
                    input="\n".join(batch) + "\n",
                    env=env,
                    capture_output=True,
                    text=True,
                )
                assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")


def test_run_configs_share_no_tables():
    a, b = cli.RunConfig(24, 12, False), cli.RunConfig(24, 12, False)
    assert a == b and repr(a) == repr(b)  # the tables are not an option
    assert a.tables is not b.tables
    assert a.tables.statesum is not b.tables.statesum
    assert a.tables.transfer is not b.tables.transfer
    assert cli.cmd_jones(a, MIXED_BATCH, io.StringIO()) == 0
    assert len(a.tables.statesum.keys) > 1 and set(a.tables.transfer.bases) == {1, 2, 3, 4, 5}
    assert b.tables.statesum.keys == [()] and b.tables.transfer.bases == {}


def test_finished_run_tables_can_be_collected():
    cfg = cli.RunConfig(24, 12, False)
    assert cli.cmd_jones(cfg, MIXED_BATCH, io.StringIO()) == 0
    assert cli.cmd_fingerprint(cfg, MIXED_BATCH, io.StringIO()) == 0
    refs = [weakref.ref(t) for t in (cfg.tables, cfg.tables.statesum, cfg.tables.transfer)]
    del cfg
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


# four integer components, each with a rational meridian that is expanded
# into a chain, slid about and slam-dunked back down to the meridian
CHAIN_PRES = """components 8
K1 3 1
K2 -2 1
K3 5 1
K4 -1 1
m1 8/5 1
m2 -30/19 1
m3 5/8 1
m4 -12/17 1
lk K1 K2 1
lk K1 K4 -2
lk K2 K3 2
lk K3 K4 -1
lk K1 m1 1
lk K2 m2 1
lk K3 m3 1
lk K4 m4 1
meridian m1 K1
meridian m2 K2
meridian m3 K3
meridian m4 K4
"""

CHAIN_SCRIPT = """chain m1
chain m2
chain m3
chain m4
slide K1 K2 +
slide K3 K1 -
slide K4 K2 +
slide K2 K3 -
slide K1 K4 -
slide K3 K2 +
slamdunk m1.3 m1.2
slamdunk m1.2 m1
slamdunk m2.4 m2.3
slamdunk m2.3 m2.2
slamdunk m2.2 m2
slamdunk m3.3 m3.2
slamdunk m3.2 m3
slamdunk m4.5 m4.4
slamdunk m4.4 m4.3
slamdunk m4.3 m4.2
slamdunk m4.2 m4
"""


def test_kirby_chain_transcript_bytes(tmp_path, capsys):
    # pins every byte of a chain transcript: presentations, edges and H1
    pres = tmp_path / "chain.pres"
    script = tmp_path / "chain.kirby"
    pres.write_text(CHAIN_PRES)
    script.write_text(CHAIN_SCRIPT)
    code, out, err = run(capsys, "kirby", str(pres), str(script))
    assert code == 0 and not err
    assert out.count("\nH1 = ") == 22
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "c6a513099e3f6edb166eb5269ec45328175eeec860c707827b00da4ad10b2a22"


def test_kirby_calls_names_rebound_before_surgery_loads(tmp_path, capsys, monkeypatch):
    # the surgery names become globals of cli on first use; a wrapper set
    # the way a tracer sets it (read the attribute, then assign it) before
    # the first kirby run is the function that run calls
    for name in cli._SURGERY_NAMES:
        monkeypatch.delitem(vars(cli), name, raising=False)
    pres = tmp_path / "chain.pres"
    script = tmp_path / "chain.kirby"
    pres.write_text(CHAIN_PRES)
    script.write_text(CHAIN_SCRIPT)
    calls = []
    render = cli.render_presentation

    def traced(p):
        calls.append(p)
        return render(p)

    monkeypatch.setattr(cli, "render_presentation", traced)
    code, out, err = run(capsys, "kirby", str(pres), str(script))
    assert code == 0 and not err
    assert len(calls) == 22
    assert cli.parse_presentation is twistlink.surgery.parse_presentation
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c6a513099e3f6edb166eb5269ec45328175eeec860c707827b00da4ad10b2a22"
    )


def test_kirby_stops_at_a_move_that_changes_h1(capsys, monkeypatch):
    # every move keeps H1, so a move that changes it is a bug: kirby_reduce
    # raises at that step, and kirby prints the one line and no transcript
    golden = Path(__file__).parent / "golden"
    pres, script = str(golden / "p.pres"), str(golden / "s.kirby")
    surgery = twistlink.surgery
    apply_move = surgery.apply_move

    def add_one_to_k_at_slamdunks(p, move):
        after = apply_move(p, move)
        if move[0] != "slamdunk":
            return after
        k, *rest = after.components
        return after._replace(components=(k._replace(coefficient=k.coefficient + 1), *rest))

    monkeypatch.setattr(surgery, "apply_move", add_one_to_k_at_slamdunks)
    message = "step 2 (slamdunk m.3 m.2) changed H1 from Z/32 to Z/39; this is a bug"
    p = surgery.parse_presentation((golden / "p.pres").read_text())
    moves = surgery.parse_script((golden / "s.kirby").read_text())
    with pytest.raises(RuntimeError) as info:
        surgery.kirby_reduce(p, moves)
    assert str(info.value) == message
    assert run(capsys, "kirby", pres, script) == (1, "", f"error: {message}\n")


def test_kirby_empty_script_echoes(tmp_path, capsys):
    pres = tmp_path / "p.pres"
    pres.write_text("components 1\nu 0 1\n")
    code, out, err = run(capsys, "kirby", str(pres))
    assert code == 0
    assert "u 0 1" in out and "H1 = Z" in out


def test_kirby_unknown_component(tmp_path, capsys):
    pres = tmp_path / "p.pres"
    script = tmp_path / "s.kirby"
    pres.write_text("components 1\nu 1 1\n")
    script.write_text("blowdown ghost\n")
    code, out, err = run(capsys, "kirby", str(pres), str(script))
    assert code == 1
    assert "ghost" in err and "step 1" in err


def test_kirby_missing_file(tmp_path, capsys):
    code, out, err = run(capsys, "kirby", str(tmp_path / "absent.pres"))
    assert code == 1 and "error:" in err


def test_homology(tmp_path, capsys):
    pres = tmp_path / "p.pres"
    pres.write_text("components 2\na 2 1\nb 2 1\nlk a b 1\n")
    code, out, err = run(capsys, "homology", str(pres))
    assert code == 0
    assert out.strip() == "H1 = Z/3"


def test_homology_rejects_bad_linking_lines(tmp_path, capsys):
    pres = tmp_path / "p.pres"
    pres.write_text("components 1\nx 1 1\nlk x y 1\n")
    code, out, err = run(capsys, "homology", str(pres))
    assert code == 1 and not out
    assert err == "error: line 3: no component named 'y'\n"
    pres.write_text("components 2\nx 1 1\ny 1 1\nlk x y 1\nlk y x 2\n")
    code, out, err = run(capsys, "homology", str(pres))
    assert code == 1 and not out
    assert err == "error: line 5: linking of x and y given twice with different values\n"


def test_meridian_errors_do_not_depend_on_hash_seed(tmp_path):
    # both edges are bad; the first in sorted order is the one reported
    pres = tmp_path / "p.pres"
    pres.write_text(
        "components 3\na 1 1\nb 1 0\nc 1 0\nlk a b 1\nlk a c 1\n"
        "meridian b a\nmeridian c a\n"
    )
    src = str(Path(twistlink.__file__).parents[1])
    errors = set()
    for seed in range(1, 7):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "twistlink", "homology", str(pres)],
            env=env, capture_output=True, text=True, check=False,
        )
        assert proc.returncode == 1 and not proc.stdout
        errors.add(proc.stderr)
    assert errors == {"error: meridian edge b->a: meridian must be unknotted\n"}


def test_module_entry_point_exits_with_mains_code(capsys, monkeypatch):
    # what python -m twistlink runs, here in process so that a traced run
    # of the suite sees it
    expected = run(capsys, "cfrac", "2/7")
    monkeypatch.setattr(sys, "argv", ["twistlink", "cfrac", "2/7"])
    with pytest.raises(SystemExit) as stop:
        runpy.run_module("twistlink", run_name="__main__")
    out, err = capsys.readouterr()
    assert (stop.value.code, out, err) == expected
    assert expected[0] == 0 and expected[1]


def test_cli_module_entry_point_exits_with_mains_code(capsys, monkeypatch):
    # what python -m twistlink.cli runs, in process for the same reason;
    # runpy warns that it runs a second copy of a module this file imported
    monkeypatch.setattr(sys, "argv", ["twistlink", "cfrac", "2/7"])
    with pytest.raises(SystemExit) as stop:
        with pytest.warns(RuntimeWarning, match="found in sys.modules"):
            runpy.run_module("twistlink.cli", run_name="__main__")
    assert stop.value.code == 0
    assert capsys.readouterr() == ("[1,2,2,3]\n", "")


def test_fingerprint_groups(capsys):
    code, out, err = run(
        capsys,
        "fingerprint",
        "trefoil=2: 1 1 1",
        "conj=3: 1 1 1 1 2 -1",
        "fig8=3: 1 -2 1 -2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "group 1 (candidate-equal): trefoil, conj"
    assert lines[1] == "group 2: fig8"
    assert lines[2].startswith("note:")


def test_fingerprint_singleton(capsys):
    code, out, err = run(capsys, "fingerprint", "2: 1 1 1")
    assert code == 0
    assert out.splitlines()[0] == "group 1: 2: 1 1 1"


def test_fingerprint_torus_pair(capsys):
    t35 = "3: " + " ".join(["1", "2"] * 5)
    t53 = "5: " + " ".join(["1", "2", "3", "4"] * 3)
    code, out, err = run(capsys, "fingerprint", f"T(3,5)={t35}", f"T(5,3)={t53}")
    assert code == 0
    assert out.splitlines()[0] == "group 1 (candidate-equal): T(3,5), T(5,3)"


def test_fingerprint_keeps_going_past_errors(capsys):
    code, out, err = run(capsys, "fingerprint", "bad=9: 1 99", "2: 1 1 1")
    assert code == 1
    assert "bad: error:" in err
    assert "group 1: 2: 1 1 1" in out


def test_output_flag(tmp_path, capsys):
    target = tmp_path / "rows.txt"
    code, out, err = run(capsys, "--output", str(target), "jones", "2: 1 1 1")
    assert code == 0 and not out
    assert target.read_text() == "span=(1,4) coeffs=[1,0,1,-1]\n"


def test_output_flag_unwritable_path(tmp_path, capsys):
    target = tmp_path / "missing" / "rows.txt"
    code, out, err = run(capsys, "--output", str(target), "jones", "2: 1 1 1")
    assert code == 1 and not out
    assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"


def test_nonpositive_limit_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["--statesum-limit", "0", "jones", "1:"])
