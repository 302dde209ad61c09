"""Value records are named tuples: fields, repr, hash and immutability."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import twistlink
from twistlink import (
    INF,
    BraidWord,
    Component,
    ContinuedFraction,
    Crossing,
    DTCode,
    GeneralizedTTKSpec,
    Homology,
    KirbyTrace,
    PlanarDiagram,
    Stabilize,
    SurgeryPresentation,
    TwistedTorusSpec,
    TwistRegion,
    braid_closure,
    kirby_reduce,
    presentation,
)
from twistlink.cli import RunConfig
from twistlink.surgery import TraceStep, _rebuild


def _pres():
    return presentation(
        [("x", "1/2", True), ("y", -3, True), ("z", "inf", False)],
        {("x", "y"): 1, ("y", "z"): 2},
        [("x", "y")],
    )


# one builder per public record, and the repr its value printed as a
# dataclass; INF hashes by identity, so none of these values holds it
RECORDS = [
    (lambda: BraidWord(2, (1, 1, 1)), "BraidWord(strands=2, letters=(1, 1, 1))"),
    (lambda: BraidWord(3), "BraidWord(strands=3, letters=())"),
    (lambda: TwistedTorusSpec(3, 2, 2, 1), "TwistedTorusSpec(p=3, q=2, r=2, s=1)"),
    (lambda: Stabilize(), "Stabilize(sign=1)"),
    (lambda: TwistRegion(1, 3, 1), "TwistRegion(first=1, width=3, twists=1)"),
    (
        lambda: GeneralizedTTKSpec(5, 2, [Stabilize(-1), TwistRegion(1, 3, 1)]),
        "GeneralizedTTKSpec(p=5, q=2, ops=(Stabilize(sign=-1), "
        "TwistRegion(first=1, width=3, twists=1)))",
    ),
    (
        lambda: Crossing(1, 0, 1, 2, 3),
        "Crossing(sign=1, in_left=0, in_right=1, out_left=2, out_right=3)",
    ),
    (
        lambda: braid_closure(BraidWord(3, (1,))),
        "PlanarDiagram(crossings=(Crossing(sign=1, in_left=0, in_right=1, out_left=0, "
        "out_right=1),), free_loops=(2,), components=((0, 1), (2,)))",
    ),
    (lambda: DTCode((4, 6, 2)), "DTCode(pairs=(4, 6, 2))"),
    (
        lambda: Component("x", Fraction(1, 2), True),
        "Component(name='x', coefficient=Fraction(1, 2), unknotted=True)",
    ),
    (
        lambda: presentation([("a", 1, True), ("b", "2/3", True)], {("a", "b"): 1}, [("a", "b")]),
        "SurgeryPresentation(components=(Component(name='a', coefficient=Fraction(1, 1), "
        "unknotted=True), Component(name='b', coefficient=Fraction(2, 3), unknotted=True)), "
        "linking=(((1, 1),), ((0, 1),)), meridian_edges=frozenset({('a', 'b')}))",
    ),
    (lambda: ContinuedFraction((1, 2, 2, 3)), "ContinuedFraction(terms=(1, 2, 2, 3))"),
    (lambda: Homology((5,), 0), "Homology(torsion=(5,), free_rank=0)"),
    (
        lambda: TraceStep("chain b", 2, 3, Homology((), 0), None),
        "TraceStep(move='chain b', components_before=2, components_after=3, "
        "h1=Homology(torsion=(), free_rank=0), result=None, note='')",
    ),
    (
        lambda: KirbyTrace(Homology((2,), 1), ()),
        "KirbyTrace(initial_h1=Homology(torsion=(2,), free_rank=1), steps=())",
    ),
    (
        lambda: RunConfig(24, 12, False),
        "RunConfig(statesum_limit=24, tl_limit=12, oracle=False)",
    ),
]
IDS = [text.split("(", 1)[0] for _, text in RECORDS]


@pytest.mark.parametrize("build, text", RECORDS, ids=IDS)
def test_record_equality_hash_and_repr(build, text):
    a, b = build(), build()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    # the hash a frozen dataclass had: that of the tuple of its fields
    assert hash(a) == hash(tuple(getattr(a, f) for f in a._fields))
    assert repr(a) == text


@pytest.mark.parametrize("build, text", RECORDS, ids=IDS)
def test_record_fields_cannot_be_assigned(build, text):
    rec = build()
    for name in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))


def test_run_config_tables_are_per_run_and_not_compared():
    a, b = RunConfig(24, 12, False), RunConfig(24, 12, False)
    assert a.tables is not b.tables and a == b
    assert a._replace(oracle=True).tables is not a.tables
    with pytest.raises(AttributeError):
        a.tables = b.tables


@pytest.mark.parametrize(
    "rec, change, message",
    [
        (BraidWord(2, (1,)), {"letters": (5,)}, "letter 5 out of range for 2 strands"),
        (BraidWord(2, (1,)), {"strands": 0}, "strand count must be >= 1, got 0"),
        (TwistedTorusSpec(3, 2, 2, 1), {"q": 3}, r"gcd\(p, q\) must be 1, got \(3, 3\)"),
        (TwistedTorusSpec(3, 2, 2, 1), {"s": 0}, "s must be nonzero"),
        (Stabilize(), {"sign": 2}, "stabilization sign must be"),
        (TwistRegion(1, 2, 1), {"width": 1}, "width must be >= 2, got 1"),
        (GeneralizedTTKSpec(3, 2), {"ops": (TwistRegion(2, 3, 1),)}, "does not fit in 3 strands"),
        (DTCode((4, 6, 2)), {"pairs": (4, 6, 4)}, "entries must cover each of"),
        (ContinuedFraction((1, 2)), {"terms": (1, 1)}, "every term after the first"),
        (_pres(), {"linking": (((1, 1),), ((0, 1), (2, 2)), ((1, 3),))}, "must be symmetric"),
        (_pres(), {"meridian_edges": frozenset({("z", "y")})}, "meridian must be unknotted"),
    ],
)
def test_replace_validates_like_the_constructor(rec, change, message):
    with pytest.raises(ValueError, match=message):
        rec._replace(**change)
    with pytest.raises(ValueError, match=message):
        type(rec)(**{**rec._asdict(), **change})


def test_replace_normalises_like_the_constructor():
    b = BraidWord(3)._replace(letters=[1, -2])
    assert b.letters == (1, -2) and type(b) is BraidWord
    spec = GeneralizedTTKSpec(3, 2)._replace(ops=[Stabilize()])
    assert spec.ops == (Stabilize(),)


def test_records_are_tuples():
    assert BraidWord(2, (1,)) == (2, (1,))
    p, q, r, s = TwistedTorusSpec(5, 2, 3, -1)
    assert (p, q, r, s) == (5, 2, 3, -1)
    comp = Component("k", INF, False)
    assert comp._replace(unknotted=True) == ("k", INF, True)
    d = braid_closure(BraidWord(2, (1, 1, 1)))
    assert isinstance(d, PlanarDiagram) and d == (d.crossings, d.free_loops, d.components)


def test_rebuild_equals_the_checked_constructor():
    p = _pres()
    step = kirby_reduce(p, [("chain", "x")])[1].steps[0].result
    for q in (p, step):
        comps = list(q.components)
        rows = [list(row) for row in q.linking]
        rebuilt = _rebuild(comps, rows, set(q.meridian_edges), {c.name for c in comps})
        assert type(rebuilt) is SurgeryPresentation
        assert rebuilt == q == SurgeryPresentation(*q)
        assert hash(rebuilt) == hash(q)
        assert rebuilt.lk("x", "y") == 1


def test_cli_import_skips_dataclasses_and_inspect():
    # each costs milliseconds at start-up; the test runner has imported
    # both, so a fresh interpreter checks, without site (-S), which may
    # import either on its own
    src = str(Path(twistlink.__file__).parents[1])
    code = (
        "import sys, twistlink.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"


def test_package_import_leaves_surgery_for_its_commands():
    # only kirby, homology and cfrac use surgery; a fresh interpreter shows
    # that importing the CLI and the package does not load it, and that
    # each surgery export still loads on access and is listed by dir()
    src = str(Path(twistlink.__file__).parents[1])
    code = (
        "import sys, twistlink, twistlink.cli\n"
        "print('twistlink.surgery' in sys.modules)\n"
        "missing = sorted(set(twistlink.__all__ + ['surgery']) - set(dir(twistlink)))\n"
        "values = [getattr(twistlink, name) for name in twistlink.__all__]\n"
        "print(missing, 'twistlink.surgery' in sys.modules)\n"
        "from twistlink import *\n"
        "print(h1 is twistlink.surgery.h1 is twistlink.h1, hasattr(twistlink, 'nope'))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout == "False\n[] True\nTrue False\n"


def test_dir_lists_every_export_in_process():
    # the fresh interpreter above checks dir() before surgery loads; this
    # runs the module's __dir__ where the statement gate sees it
    listed = dir(twistlink)
    assert listed == sorted(listed)
    assert set(twistlink.__all__) | {"surgery"} <= set(listed)


def test_transfer_and_fractions_load_at_first_use(tmp_path):
    # compiling transfer.py or surgery.py and importing fractions (which
    # loads decimal) cost milliseconds at start-up; each fresh interpreter
    # (-S) prints which of the four are loaded after each step
    (tmp_path / "p.pres").write_text("components 2\nk 5 1\nm 7/3 1\nlk k m 1\nmeridian m k\n")
    (tmp_path / "s.kirby").write_text("chain m\nslamdunk m.3 m.2\n")
    src = str(Path(twistlink.__file__).parents[1])
    head = (
        "import os, sys, twistlink, twistlink.cli as cli\n"
        "def loaded():\n"
        "    names = ('twistlink.transfer', 'twistlink.surgery', 'fractions', 'decimal')\n"
        "    print([name for name in names if name in sys.modules])\n"
        "def run(*argv):\n"
        "    assert cli.main(['--output', os.devnull, *argv]) == 0, argv\n"
        "    loaded()\n"
    )
    steps = {
        "jones": (
            "cli.RunConfig(24, 12, False)\n"
            "loaded()\n"
            "run('jones', '2: 1 1 1', 'fig8=3: 1 -2 1 -2', '4: 1 2 3 1 2 3 1 2 3 1 2 3')\n"
            "run('dt', '2: 1 1 1', 'fig8=3: 1 -2 1 -2')\n"
            "run('fingerprint', '2: 1 1 1', 'hopf=2: 1 1')\n"
            "run('jones', '2: 1 1 1', '3: ' + '1 2 ' * 13)\n"
        ),
        "cfrac": "run('cfrac', '2/7')\n",
        "kirby": "run('kirby', 'p.pres', 's.kirby')\n",
    }
    env = dict(os.environ, PYTHONPATH=src)
    out = {}
    for name, code in steps.items():
        proc = subprocess.run(
            [sys.executable, "-S", "-c", head + code],
            cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
        )
        out[name] = proc.stdout
    assert out["jones"] == "[]\n[]\n[]\n[]\n['twistlink.transfer']\n"
    assert out["cfrac"] == out["kirby"] == "['twistlink.surgery', 'fractions', 'decimal']\n"
