"""Command-line behaviour: exit codes, formats, determinism."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import chordbars
from chordbars import (QQ, DriftSegment, FilteredComplex, random_timeline,
                       schemas, simulate)
from chordbars.cli import main


@pytest.fixture()
def fixture_dir(tmp_path, capsys):
    dest = tmp_path / "fx"
    assert main(["fixtures", "--dest", str(dest)]) == 0
    capsys.readouterr()
    return dest


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fixtures_inventory_and_determinism(tmp_path, capsys):
    d1 = tmp_path / "one"
    d2 = tmp_path / "two"
    assert main(["fixtures", "--dest", str(d1)]) == 0
    assert main(["fixtures", "--dest", str(d2)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in d1.iterdir())
    assert names == ["betti.json", "demo_complex.json", "demo_timeline.json",
                     "profile.csv", "sigma.json",
                     "stabilized_unknot.dga.json", "standard_unknot.dga.json",
                     "two_copy.augmentation.json", "two_copy.dga.json"]
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_validate_complex(fixture_dir, capsys):
    code, out, _ = _run(capsys, ["validate",
                                 str(fixture_dir / "demo_complex.json")])
    assert code == 0
    assert out == "valid complex: 3 generators, window [0, inf)\n"


def test_validate_timeline(fixture_dir, capsys):
    code, out, _ = _run(capsys, ["validate",
                                 str(fixture_dir / "demo_timeline.json")])
    assert code == 0
    assert out == "valid timeline: 3 generators initially, 9 items\n"


def test_validate_dga(fixture_dir, capsys):
    code, out, _ = _run(
        capsys, ["validate", str(fixture_dir / "standard_unknot.dga.json")])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "degree 'c': ok"
    assert lines[-1] == "valid chord algebra: 1 chords"


def test_validate_bad_dga_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.dga.json"
    path.write_text(json.dumps({
        "field": "Q",
        "chords": [{"label": "p", "length": "1", "degree": 0,
                    "ends": [0, 0]},
                   {"label": "m", "length": "2", "degree": 2,
                    "ends": [0, 1]}],
        "differential": {"m": [{"coeff": "1", "word": ["p"]}]},
    }))
    code, out, err = _run(capsys, ["validate", str(path)])
    assert code == 1
    assert out == (
        "degree 'p': ok\n"
        "length 'p': ok\n"
        "square 'p': ok\n"
        "degree 'm': FAIL — word p has degree 0, expected 1\n"
        "length 'm': ok\n"
        "mixed-output 'm': FAIL — word p of d(m) contains no mixed chord\n"
        "square 'm': ok\n"
        "invalid: 2 failed check(s)\n")
    assert err == ""


def test_validate_missing_file_exits_two(capsys):
    code, _, err = _run(capsys, ["validate", "/nonexistent/x.json"])
    assert code == 2
    assert err.startswith("error:")


def test_validate_bad_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"field": }')
    code, _, err = _run(capsys, ["validate", str(path)])
    assert code == 2
    assert "line 1 column" in err


def test_validate_unsound_complex_exits_one(tmp_path, capsys):
    path = tmp_path / "cx.json"
    path.write_text(json.dumps({
        "field": "F2",
        "window": ["0", "inf"],
        "generators": [{"id": "a", "action": "2", "degree": 0},
                       {"id": "b", "action": "1", "degree": 1}],
        "differential": {"b": [{"id": "a", "coeff": "1"}]},
    }))
    code, _, err = _run(capsys, ["validate", str(path)])
    assert code == 1
    assert err.startswith("error:")


def test_barcode_formats(fixture_dir, capsys):
    target = str(fixture_dir / "demo_complex.json")
    code, out, _ = _run(capsys, ["barcode", target, "--engine", "both"])
    assert code == 0
    assert out == "[1, 3/2) deg 0\n[2, inf) deg 1\n"
    code, out, _ = _run(capsys, ["barcode", target, "--format", "csv"])
    assert out == "start,end,degree\n1,3/2,0\n2,inf,1\n"
    code, out, _ = _run(capsys, ["barcode", target, "--format", "structured"])
    assert json.loads(out) == [{"start": "1", "end": "3/2", "degree": 0},
                               {"start": "2", "end": "inf", "degree": 1}]
    code, out, _ = _run(capsys,
                        ["barcode", target, "--format", "diagram",
                         "--width", "24"])
    lines = out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("[1, 3/2) deg 0")
    assert lines[0].endswith("|") and lines[1].endswith(">")


def test_stamp_only_on_human_formats(fixture_dir, capsys):
    target = str(fixture_dir / "demo_complex.json")
    code, out, _ = _run(capsys, ["barcode", target, "--stamp"])
    assert out.splitlines()[0].startswith("# chordbars 20")
    code, out, _ = _run(capsys,
                        ["barcode", target, "--stamp", "--format", "csv"])
    assert out.splitlines()[0] == "start,end,degree"
    code, out, _ = _run(capsys, ["barcode", target, "--stamp",
                                 "--format", "structured"])
    assert out.lstrip().startswith("[")


def test_simulate_report(fixture_dir, tmp_path, capsys):
    vine = tmp_path / "vine.csv"
    code, out, _ = _run(capsys,
                        ["simulate", str(fixture_dir / "demo_timeline.json"),
                         "--vineyard", str(vine)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "handle_slide @ t=1/4: pass (pairing unchanged)"
    assert lines[1] == "handle_slide @ t=3/8: pass (pairing unchanged)"
    assert lines[2] == "death @ t=1/2: pass (the collided bar removed)"
    assert lines[3] == "birth @ t=3/4: pass (one bar added at the common action)"
    assert lines[4] == "checks: 4 run, 0 failed"
    text = vine.read_text()
    assert text.splitlines()[0] == "t,bar_id,start,end"
    assert len(text.splitlines()) > 5


def test_simulate_demo_replay_counts(fixture_dir):
    # pins the replay work on the shipped demo: a silent change in how many
    # samples or crossings replay produces fails here
    with open(fixture_dir / "demo_timeline.json", encoding="utf-8") as fh:
        initial, items = schemas.parse_timeline(json.load(fh))
    trace = simulate(initial, items)
    assert len(trace.samples) == 7
    assert [len(seg.crossings) for seg in trace.segments] == [0, 0, 1, 0, 1]
    assert [len(seg.sample_indices) for seg in trace.segments] == [1] * 5


def test_linearize(fixture_dir, tmp_path, capsys):
    dga = str(fixture_dir / "two_copy.dga.json")
    eps = str(fixture_dir / "two_copy.augmentation.json")
    out_path = tmp_path / "lin.json"
    code, out, _ = _run(capsys, ["linearize", dga, eps,
                                 "--window", "9", "12",
                                 "--out", str(out_path)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "complex written to %s" % out_path
    assert lines[1:] == ["[9, 41/4) deg -2", "[11, inf) deg 1"]
    doc = json.loads(out_path.read_text())
    assert sorted(g["action"] for g in doc["generators"]) == \
        ["11", "41/4", "9"]


def test_linearize_window_gate(fixture_dir, capsys):
    dga = str(fixture_dir / "two_copy.dga.json")
    eps = str(fixture_dir / "two_copy.augmentation.json")
    code, _, err = _run(capsys, ["linearize", dga, eps,
                                 "--window", "0", "4", "--reach", "2"])
    assert code == 1
    lines = err.splitlines()
    assert lines[0] == ("error: window width 4 exceeds the augmentation "
                        "reach 2")
    assert lines[1] == ("hypothesis violated: the window width b - a must "
                        "be at most the reach l")


def test_bound(fixture_dir, capsys):
    sigma = str(fixture_dir / "sigma.json")
    betti = str(fixture_dir / "betti.json")
    code, out, _ = _run(capsys, ["bound", sigma, betti,
                                 "--oscillation", "49/10"])
    assert code == 0
    assert out.splitlines() == [
        "count: 2",
        "i_star: 2",
        "ordering: 1 0 2",
        "binding: sigma",
        "hypothesis: displaced image transverse to the flow (assumed, "
        "not checked)",
    ]
    code, out, _ = _run(capsys, ["bound", sigma, betti,
                                 "--oscillation", "5"])
    assert out.splitlines()[0] == "count: 0 (strict inequality required)"
    code, out, _ = _run(capsys, ["bound", sigma, betti, "--profile",
                                 str(fixture_dir / "profile.csv")])
    assert out.splitlines()[0] == "count: 2"


def test_bound_non_finite_profile_exits_two(fixture_dir, tmp_path, capsys):
    prof = tmp_path / "p.csv"
    for cell in ("1e400", "nan", "inf"):
        prof.write_text("t,max,min\n0,%s,0\n1,2,0\n" % cell)
        code, out, err = _run(capsys, [
            "bound", str(fixture_dir / "sigma.json"),
            str(fixture_dir / "betti.json"), "--profile", str(prof)])
        assert code == 2 and out == ""
        assert "bad number" in err and "p.csv line 2" in err


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["barcode"]) == 2
    # a diagram needs a column for each bar end
    for width in ("1", "0", "-3", "x"):
        assert main(["barcode", "c.json", "--format", "diagram",
                     "--width", width]) == 2
        assert "argument --width" in capsys.readouterr().err
    # nor more columns than a row can hold, however large the number
    for width in ("10001", "4294967296", "99999999999999999999"):
        assert main(["barcode", "c.json", "--format", "diagram",
                     "--width", width]) == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --width: diagram width must be at most 10000, "
            "got %s\n" % width)
    capsys.readouterr()


def test_bound_reads_betti_entries_at_their_path(fixture_dir, monkeypatch,
                                                 capsys):
    # each rank is read by BettiProfile's rule, at its JSON path; an empty
    # profile is well-formed JSON the bound refuses
    monkeypatch.chdir(fixture_dir)
    for text, code, message in [
            ("[1, -1, 1]", 2,
             "ranks must be non-negative integers (at b.json[1])"),
            ("[1, true]", 2,
             "ranks must be non-negative integers (at b.json[1])"),
            ("{}", 2, "expected an array (at b.json)"),
            ("[]", 1, "profile must cover degrees 0..n")]:
        (fixture_dir / "b.json").write_text(text)
        assert _run(capsys, ["bound", "sigma.json", "b.json",
                             "--oscillation", "1"]) == (
            code, "", "error: %s\n" % message), text


_ODD_VALUES = ["0", "-1", "1/0", "inf", "-inf", "nan", "1e400", "1e-400",
               "2", "99999999999999999999", "1_0", " 3 ", "", "0x10", "1/3",
               "-0", "\u0661\u0662"]


def test_option_values_keep_the_exit_contract(fixture_dir, monkeypatch,
                                              capsys):
    # every option that takes a number answers each odd value with an exit
    # code of the contract, never an escaping exception
    monkeypatch.chdir(fixture_dir)
    lin = ["linearize", "two_copy.dga.json", "two_copy.augmentation.json"]
    bound = ["bound", "sigma.json", "betti.json"]
    slots = [
        lambda v: ["barcode", "demo_complex.json", "--format", "diagram",
                   "--width", v],
        lambda v: lin + ["--window", v, "12"],
        lambda v: lin + ["--window", "9", v],
        lambda v: lin + ["--window", "9", "12", "--reach", v],
        lambda v: bound + ["--oscillation", v],
        lambda v: bound + ["--oscillation", "1", "--reach", v]]
    for slot in slots:
        for value in _ODD_VALUES:
            assert main(slot(value)) in (0, 1, 2), slot(value)
            capsys.readouterr()


def _crossing_family(path, seed=11, n=8, knots=6):
    """Write a one-drift timeline in which n degree-0 generators zigzag
    through one another (many crossings) inside a window with sloped edges,
    below a degree-1 generator whose boundary is one of them."""
    rng = random.Random(seed)
    ts = [Fraction(k, knots) for k in range(knots + 1)]
    paths = {"z%d" % i: [(t, Fraction(rng.randint(10, 90),
                                      rng.choice([7, 11, 13]))) for t in ts]
             for i in range(n)}
    paths["h"] = [(0, 20), (1, 25)]
    initial = FilteredComplex(
        QQ, (0, 40), [(gid, p[0][1], 1 if gid == "h" else 0)
                      for gid, p in paths.items()], {"h": {"z0": 1}})
    seg = DriftSegment(0, 1, paths,
                       window_a=[(0, 0), (Fraction(1, 2), 1), (1, 0)],
                       window_b=[(0, 40), (1, 30)])
    path.write_text(schemas.dumps(schemas.serialize_timeline(initial, [seg])))
    return simulate(initial, [seg])


def _cli(flags, argv, cwd):
    """Run ``python [flags] -m chordbars argv`` on this checkout's library."""
    env = dict(os.environ)
    src = str(Path(chordbars.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable] + flags + ["-m", "chordbars"]
                          + argv, cwd=cwd, env=env, capture_output=True,
                          text=True)


def test_optimized_mode_output_identical(fixture_dir):
    # ``python -O`` strips asserts; the CLI must not depend on them
    fx = str(fixture_dir)
    trace = _crossing_family(fixture_dir / "crossings.json")
    assert len(trace.segments[0].crossings) >= 50
    # many segments, with crossings, events and event-free boundaries
    family = random_timeline(random.Random(4), QQ)
    (fixture_dir / "random.json").write_text(
        schemas.dumps(schemas.serialize_timeline(*family)))
    trace = simulate(*family)
    assert len(trace.segments) - 1 > len(trace.events) > 0
    assert any(st.crossings for st in trace.segments)
    # float samples, read exactly: the width is 5 throughout, so the
    # oscillation equals the gap 5 and the strict inequality sets the count
    (fixture_dir / "float_profile.csv").write_text(
        "t,max,min\n0,2.5,-2.5\n0.5,3.75,-1.25\n1,1.5e0,-3.5\n")
    commands = [
        ["validate", "demo_complex.json"],
        ["validate", "demo_timeline.json"],
        ["validate", "standard_unknot.dga.json"],
        ["barcode", "demo_complex.json", "--engine", "both",
         "--format", "structured"],
        ["simulate", "demo_timeline.json"],
        ["simulate", "demo_timeline.json", "--vineyard", "vine.csv"],
        ["simulate", "crossings.json", "--vineyard", "vine.csv"],
        ["simulate", "random.json", "--vineyard", "vine.csv"],
        ["linearize", "two_copy.dga.json", "two_copy.augmentation.json",
         "--window", "9", "12"],
        ["bound", "sigma.json", "betti.json", "--oscillation", "49/10"],
        ["bound", "sigma.json", "betti.json", "--profile", "profile.csv"],
        ["bound", "sigma.json", "betti.json", "--profile",
         "float_profile.csv"],
    ]
    vine = fixture_dir / "vine.csv"
    for argv in commands:
        runs = []
        for flags in ([], ["-O"]):
            proc = _cli(flags, argv, fx)
            # the vineyard CSV is compared byte for byte too
            runs.append((proc, vine.read_bytes() if "--vineyard" in argv
                         else None))
        (plain, plain_csv), (optimized, optimized_csv) = runs
        assert plain.returncode == 0, (argv, plain.stderr)
        assert (optimized.returncode, optimized.stdout, optimized_csv) == \
            (plain.returncode, plain.stdout, plain_csv), argv
    assert vine.read_text().startswith("t,bar_id,start,end\n")
    assert plain.stdout == (  # the last command's: the float profile
        "count: 0 (strict inequality required)\n"
        "i_star: 0\n"
        "ordering: 1 0 2\n"
        "binding: sigma\n"
        "hypothesis: displaced image transverse to the flow (assumed, not "
        "checked)\n")


def test_overlong_numbers_exit_two(fixture_dir):
    # a value with more digits than int() reads or str() prints is a parse
    # error at its JSON path: an exponent string read by Fraction's parser,
    # in a complex action or a timeline t0, or a bare JSON integer literal
    cases = []
    for name, edit, argv, where in [
            ("demo_complex.json", ("generators", 0, "action"), "barcode",
             "bad.json.generators[0].action"),
            ("demo_timeline.json", ("items", 0, "t0"), "simulate",
             "bad.json.items[0].t0")]:
        for value in ("1e5000", "1e-5000"):
            doc = json.loads((fixture_dir / name).read_text())
            *keys, last = edit
            node = doc
            for key in keys:
                node = node[key]
            node[last] = value
            cases.append((json.dumps(doc), argv, where))
    cases.append(('{"field": "Q", "window": ["0", "inf"], "generators": '
                  '[{"id": "x", "action": 1%s, "degree": 0}]}' % ("0" * 5000),
                  "barcode", "bad.json"))
    for text, argv, where in cases:
        (fixture_dir / "bad.json").write_text(text)
        for flags in ([], ["-O"]):
            proc = _cli(flags, [argv, "bad.json"], str(fixture_dir))
            assert proc.returncode == 2, (argv, where, proc.stderr)
            assert "(at %s)" % where in proc.stderr
            assert "Traceback" not in proc.stderr


def test_overlong_scalars_exit_two(fixture_dir):
    # scalars are read like actions: a coefficient, an augmentation value or
    # a slide addend with more digits than int() reads or str() prints is a
    # parse error naming the value, and an exponent far past that limit is
    # refused before its power of ten is computed
    fx = fixture_dir
    for name, edit, argv in [
            ("demo_complex.json", ("differential", "b", 0, "coeff"),
             ["barcode", "bad.json"]),
            ("two_copy.dga.json", ("differential", "e", 0, "coeff"),
             ["validate", "bad.json"]),
            ("two_copy.augmentation.json", ("c@0",),
             ["linearize", "two_copy.dga.json", "bad.json",
              "--window", "9", "12"]),
            ("demo_timeline.json", ("items", 1, "addend", "b"),
             ["simulate", "bad.json"])]:
        for value in ("1e5000", "1e20000000"):
            doc = json.loads((fx / name).read_text())
            *keys, last = edit
            node = doc
            for key in keys:
                node = node[key]
            node[last] = value
            (fx / "bad.json").write_text(json.dumps(doc))
            for flags in ([], ["-O"]):
                proc = _cli(flags, argv, str(fx))
                assert proc.returncode == 2, (name, value, proc.stderr)
                assert "cannot parse scalar %r" % value in proc.stderr
                assert "Traceback" not in proc.stderr


_ENTRY = {"time": "1/4", "id": "n", "degree": 0}
_UNREADABLE_SCALARS = [
    # file edited, JSON path, value written there, command, where it is read
    ("demo_complex.json", ("differential", "b", 0, "coeff"), "abc",
     ["barcode"], ".differential['b'][0].coeff"),
    ("demo_complex.json", ("differential", "b", 0, "coeff"), "abc",
     ["validate"], ".differential['b'][0].coeff"),
    ("two_copy.dga.json", ("differential", "e", 0, "coeff"), "abc",
     ["validate"], ".differential['e'][0].coeff"),
    ("two_copy.augmentation.json", ("c@0",), "abc",
     ["linearize", "two_copy.dga.json", "--window", "9", "12"], "['c@0']"),
    ("demo_timeline.json", ("items", 1, "addend", "b"), "abc",
     ["simulate"], ".items[1].addend['b']"),
    ("demo_timeline.json", ("items", 1, "addend", "b"), "abc",
     ["validate"], ".items[1].addend['b']"),
    ("demo_timeline.json", ("items", 1, "unit"), "abc", ["validate"],
     ".items[1].unit"),
    ("demo_timeline.json", ("items", 1),
     {"type": "entry_below", **_ENTRY, "couplings": {"c": "abc"}},
     ["validate"], ".items[1].couplings['c']"),
    ("demo_timeline.json", ("items", 1),
     {"type": "entry_above", **_ENTRY, "boundary": {"c": "abc"}},
     ["validate"], ".items[1].boundary['c']"),
]


def test_unreadable_scalars_exit_two_at_their_path(fixture_dir):
    # a coefficient, augmentation value, slide addend or unit, coupling or
    # boundary entry that is no rational is refused at its JSON path, by
    # validate as by the command that uses it
    for name, edit, value, argv, where in _UNREADABLE_SCALARS:
        doc = json.loads((fixture_dir / name).read_text())
        *keys, last = edit
        node = doc
        for key in keys:
            node = node[key]
        node[last] = value
        (fixture_dir / "bad.json").write_text(json.dumps(doc))
        if argv[0] == "linearize":
            argv = argv[:2] + ["bad.json"] + argv[2:]
        else:
            argv = argv + ["bad.json"]
        proc = _cli([], argv, str(fixture_dir))
        assert (proc.returncode, proc.stdout) == (2, ""), (argv, where)
        assert proc.stderr == (
            "error: cannot parse scalar 'abc': Invalid literal for Fraction: "
            "'abc' (at bad.json%s)\n" % where)


def test_window_values_read_inf_in_any_case(fixture_dir, capsys):
    # --window and --reach read "inf" in any case and spacing; anything
    # else that is no rational exits 2 at the option, and so does any inf
    # at --oscillation, which is finite
    dga = str(fixture_dir / "two_copy.dga.json")
    eps = str(fixture_dir / "two_copy.augmentation.json")
    barcode = "[9, 41/4) deg -2\n[11, inf) deg 1\n"
    for argv, expected in [
            (["--window", "9", " INF"], (0, barcode, "")),
            (["--window", "9", "12", "--reach", "Inf"], (0, barcode, "")),
            (["--window", "9", "x"],
             (2, "", "error: cannot read action value 'x' (at --window)\n")),
            (["--window", "iNf", "12"],
             (2, "", "error: window bottom must be finite (at --window)\n"))]:
        assert _run(capsys, ["linearize", dga, eps] + argv) == expected
    assert _run(capsys, [
        "bound", str(fixture_dir / "sigma.json"),
        str(fixture_dir / "betti.json"), "--oscillation", " Inf "]) == (
        2, "", "error: cannot read action value ' Inf ' (at --oscillation)\n")


def test_a_reach_must_be_positive(fixture_dir):
    # linearize and bound read --reach through one rule, before the width
    # gate, the same under -O
    linearize = ["linearize", "two_copy.dga.json",
                 "two_copy.augmentation.json", "--window", "9", "12"]
    bound = ["bound", "sigma.json", "betti.json", "--oscillation", "1"]
    for argv in (linearize, bound):
        for reach in ("0", "-1"):
            for flags in ([], ["-O"]):
                proc = _cli(flags, argv + ["--reach", reach], str(fixture_dir))
                assert (proc.returncode, proc.stdout, proc.stderr) == (
                    1, "", "error: augmentation reach must be positive, "
                    "got %s\n" % reach), (argv, reach, flags)


_TL = ("validate", "simulate")  # a timeline's two commands
_F5 = (("initial", "field"), "F5")
_ITEM = ("items", 1)  # the first slide, or the event put in its place
_VALUE_SLOTS = [
    # file, its edits (JSON path, value), command(s), stderr after "error: "
    ("demo_complex.json", [(("field",), "F4")], ("validate",),
     "characteristic must be 0 or a prime, got 4 (at bad.json.field)"),
    ("demo_complex.json", [(("field",), "F7x")], ("barcode",),
     "unrecognized field tag 'F7x' (at bad.json.field)"),
    ("demo_complex.json", [(("window", 1), [])], ("validate",),
     "cannot read action value [] (at bad.json.window[1])"),
    ("demo_complex.json", [(("generators", 0, "id"), 7)], ("validate",),
     "generator id must be a nonempty string, got 7 "
     "(at bad.json.generators[0].id)"),
    ("demo_complex.json", [(("generators", 0, "action"), 1.5)],
     ("validate",), "action values must be exact rationals, got 1.5 "
                    "(at bad.json.generators[0].action)"),
    ("demo_complex.json", [(("generators", 0, "degree"), "0")],
     ("validate",),
     "degree must be an integer, got '0' (at bad.json.generators[0].degree)"),
    ("demo_complex.json", [(("differential", "b", 0, "id"), 3)],
     ("validate",),
     "expected a string (at bad.json.differential['b'][0].id)"),
    ("demo_complex.json", [(("field",), "F5"),
                           (("differential", "b", 0, "coeff"), "1/5")],
     ("barcode",),
     "division by zero in F5 (at bad.json.differential['b'][0].coeff)"),
    ("two_copy.dga.json", [(("field",), True)], ("validate",),
     "field tag must be a string, got True (at bad.json.field)"),
    ("two_copy.dga.json", [(("chords", 0, "label"), 5)], ("validate",),
     "expected a string (at bad.json.chords[0].label)"),
    ("two_copy.dga.json", [(("chords", 0, "length"), None)], ("validate",),
     "cannot read action value None (at bad.json.chords[0].length)"),
    ("two_copy.dga.json", [(("chords", 0, "degree"), True)], ("validate",),
     "degree must be an integer, got True (at bad.json.chords[0].degree)"),
    ("two_copy.dga.json", [(("chords", 0, "ends", 0), "0")], ("validate",),
     "expected an integer (at bad.json.chords[0].ends[0])"),
    ("two_copy.dga.json", [(("differential", "e", 0, "coeff"), "1/5")],
     ("validate",),
     "division by zero in F5 (at bad.json.differential['e'][0].coeff)"),
    ("two_copy.dga.json", [(("differential", "e", 0, "word", 0), 3)],
     ("validate",),
     "expected a string (at bad.json.differential['e'][0].word[0])"),
    ("two_copy.augmentation.json", [(("c@0",), "1/5")], ("linearize",),
     "division by zero in F5 (at bad.json['c@0'])"),
    ("two_copy.augmentation.json", [(("c@0",), 1.5)], ("linearize",),
     "cannot coerce 1.5 into F5 (at bad.json['c@0'])"),
    ("demo_timeline.json", [(("initial", "field"), "F7x")], _TL,
     "unrecognized field tag 'F7x' (at bad.json.initial.field)"),
    # drift items
    ("demo_timeline.json", [(("items", 0, "t0"), True)], _TL,
     "action values must be exact rationals, got True "
     "(at bad.json.items[0].t0)"),
    ("demo_timeline.json", [(("items", 0, "t1"), "x")], _TL,
     "cannot read action value 'x' (at bad.json.items[0].t1)"),
    ("demo_timeline.json", [(("items", 0, "actions", "a", 1, 0), 0.25)], _TL,
     "action values must be exact rationals, got 0.25 "
     "(at bad.json.items[0].actions['a'][1][0])"),
    ("demo_timeline.json", [(("items", 0, "window_a"), "1e5000")], _TL,
     "cannot read action value '1e5000' (at bad.json.items[0].window_a)"),
    ("demo_timeline.json", [(("items", 0, "window_b"), "INFx")], _TL,
     "cannot read action value 'INFx' (at bad.json.items[0].window_b)"),
    # a slide, its scalars over F5
    ("demo_timeline.json", [(_ITEM + ("time",), 1.5)], _TL,
     "action values must be exact rationals, got 1.5 "
     "(at bad.json.items[1].time)"),
    ("demo_timeline.json", [(_ITEM + ("target",), 3)], _TL,
     "expected a string (at bad.json.items[1].target)"),
    ("demo_timeline.json", [_F5, (_ITEM + ("addend", "b"), "1/5")], _TL,
     "division by zero in F5 (at bad.json.items[1].addend['b'])"),
    ("demo_timeline.json", [_F5, (_ITEM + ("unit",), "1/5")], _TL,
     "division by zero in F5 (at bad.json.items[1].unit)"),
    # a birth and a death
    ("demo_timeline.json", [(("items", 7, "x"), ["u", "1"])], _TL,
     "degree must be an integer, got '1' (at bad.json.items[7].x[1])"),
    ("demo_timeline.json", [(("items", 7, "y"), ["", 0])], _TL,
     "generator id must be a nonempty string, got '' "
     "(at bad.json.items[7].y[0])"),
    ("demo_timeline.json", [(("items", 7, "common_action"), {})], _TL,
     "cannot read action value {} (at bad.json.items[7].common_action)"),
    ("demo_timeline.json", [(("items", 5, "x"), 5)], _TL,
     "expected a string (at bad.json.items[5].x)"),
    ("demo_timeline.json", [(("items", 5, "y"), None)], _TL,
     "expected a string (at bad.json.items[5].y)"),
    # the window-edge events, in the slide's place
    ("demo_timeline.json", [(_ITEM, {"type": "exit_below", "time": "1/4",
                                     "id": 7})], _TL,
     "expected a string (at bad.json.items[1].id)"),
    ("demo_timeline.json", [(_ITEM, {"type": "exit_above", "time": "1/4",
                                     "id": []})], _TL,
     "expected a string (at bad.json.items[1].id)"),
    ("demo_timeline.json", [(_ITEM, {"type": "entry_below", **_ENTRY,
                                     "id": ""})], _TL,
     "generator id must be a nonempty string, got '' "
     "(at bad.json.items[1].id)"),
    ("demo_timeline.json", [(_ITEM, {"type": "entry_below", **_ENTRY,
                                     "degree": 1.5})], _TL,
     "degree must be an integer, got 1.5 (at bad.json.items[1].degree)"),
    ("demo_timeline.json", [_F5, (_ITEM, {"type": "entry_below", **_ENTRY,
                                          "couplings": {"c": "1/5"}})], _TL,
     "division by zero in F5 (at bad.json.items[1].couplings['c'])"),
    ("demo_timeline.json", [(_ITEM, {"type": "entry_above", **_ENTRY,
                                     "id": None})], _TL,
     "generator id must be a nonempty string, got None "
     "(at bad.json.items[1].id)"),
    ("demo_timeline.json", [(_ITEM, {"type": "entry_above", **_ENTRY,
                                     "degree": "0"})], _TL,
     "degree must be an integer, got '0' (at bad.json.items[1].degree)"),
    ("demo_timeline.json", [_F5, (_ITEM, {"type": "entry_above", **_ENTRY,
                                          "boundary": {"c": "1/5"}})], _TL,
     "division by zero in F5 (at bad.json.items[1].boundary['c'])"),
    ("sigma.json", [((1,), 1.5)], ("bound",),
     "action values must be exact rationals, got 1.5 (at bad.json[1])"),
]
_DGA_EPS = ["two_copy.dga.json", "two_copy.augmentation.json"]
_OPTION_SLOTS = [
    (["linearize", *_DGA_EPS, "--window", "x", "12"],
     "cannot read action value 'x' (at --window)"),
    (["linearize", *_DGA_EPS, "--window", "9", "1/0"],
     "cannot read action value '1/0' (at --window)"),
    (["linearize", *_DGA_EPS, "--window", "9", "12", "--reach", ""],
     "cannot read action value '' (at --reach)"),
    (["bound", "sigma.json", "betti.json", "--oscillation", "1", "--reach",
      "[]"], "cannot read action value '[]' (at --reach)"),
    (["bound", "sigma.json", "betti.json", "--oscillation", "true"],
     "cannot read action value 'true' (at --oscillation)"),
]


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
def test_unreadable_values_exit_two_at_their_path(fixture_dir, flags):
    # one value slot of each document kind, each timeline item field, sigma
    # and each number option: a wrong-typed or unreadable value is refused
    # by the library reader of its kind, at its JSON path; a timeline is
    # refused alike by validate and simulate
    argvs = {"validate": ["validate", "bad.json"],
             "barcode": ["barcode", "bad.json"],
             "simulate": ["simulate", "bad.json"],
             "bound": ["bound", "bad.json", "betti.json", "--oscillation",
                       "1"],
             "linearize": ["linearize", "two_copy.dga.json", "bad.json",
                           "--window", "9", "12"]}

    def refused(argv, message):
        proc = _cli(flags, argv, str(fixture_dir))
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: %s\n" % message), argv

    for argv, message in _OPTION_SLOTS:
        refused(argv, message)
    for name, edits, commands, message in _VALUE_SLOTS:
        doc = json.loads((fixture_dir / name).read_text())
        for (*keys, last), value in edits:
            node = doc
            for key in keys:
                node = node[key]
            node[last] = value
        (fixture_dir / "bad.json").write_text(json.dumps(doc))
        for command in commands:
            refused(argvs[command], message)


def test_overlong_printed_values_exit_one(fixture_dir):
    # values computed from in-limit inputs can have more digits than str()
    # prints; printing one is a validation error naming the limit.  Two
    # 4,001-digit coefficients multiply into an 8,001-digit d(d(y)), and
    # paths with 2,201-digit values cross at a time of over 4,400 digits.
    big = "1" + "0" * 4000
    dga = {"field": "Q",
           "chords": [{"label": lab, "length": length, "degree": deg,
                       "ends": [0, 0]}
                      for lab, length, deg in [("a", "1", 0), ("b", "1", 0),
                                               ("x", "3", 1), ("y", "4", 2)]],
           "differential": {"x": [{"coeff": big, "word": ["a", "b"]}],
                            "y": [{"coeff": big, "word": ["x"]}]}}
    y0 = str(Fraction(1, 2) + Fraction(1, 10 ** 2200 + 1))
    y1 = str(Fraction(1, 3) + Fraction(1, 10 ** 2200 + 3))
    timeline = {
        "initial": {"field": "Q", "window": ["0", "inf"], "generators": [
            {"id": "x", "action": "0", "degree": 0},
            {"id": "y", "action": y0, "degree": 0}]},
        "items": [{"type": "drift", "t0": "0", "t1": "1", "actions": {
            "x": [["0", "0"], ["1", "1"]], "y": [["0", y0], ["1", y1]]}}]}
    for doc, argv in [(dga, ["validate"]),
                      (timeline, ["simulate", "--vineyard", "vine.csv"])]:
        (fixture_dir / "big.json").write_text(json.dumps(doc))
        for flags in ([], ["-O"]):
            proc = _cli(flags, argv[:1] + ["big.json"] + argv[1:],
                        str(fixture_dir))
            assert proc.returncode == 1, proc.stderr
            assert proc.stderr.splitlines() == [
                "error: cannot print a value with more than %d digits"
                % sys.get_int_max_str_digits()]


def test_square_failure_names_the_chain(fixture_dir, capsys):
    # d(d(y)) = d(x) is printed with the unit word first, then by word
    # length and word, each coefficient in its field's canonical form
    doc = {"field": "Q",
           "chords": [{"label": lab, "length": length, "degree": deg,
                       "ends": [0, 0]}
                      for lab, length, deg in [("a", "1", 0), ("b", "1", 0),
                                               ("x", "3", 1), ("y", "4", 2)]],
           "differential": {
               "x": [{"coeff": "17/3", "word": ["a", "b"]},
                     {"coeff": "-2", "word": []},
                     {"coeff": "-1/2", "word": ["b"]}],
               "y": [{"coeff": "1", "word": ["x"]}]}}
    (fixture_dir / "square.json").write_text(json.dumps(doc))
    assert main(["validate", str(fixture_dir / "square.json")]) == 1
    out = capsys.readouterr().out
    assert "square 'y': FAIL — d(d(y)) = -2·1 + -1/2·b + 17/3·a*b\n" in out
    assert out.endswith("invalid: 1 failed check(s)\n")


_JUNK = (None, True, 1.5, "", "1/0", "inf", [], {}, 10 ** 30)


def _mutate(rng, doc):
    """One random edit: drop a key, pop a list item, or swap a node (the
    whole document included) for a junk value or a copy of another node."""
    slots = []

    def walk(node):
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else ())
        for key, child in items:
            slots.append((node, key))
            walk(child)

    walk(doc)
    if not slots or rng.random() < 0.02:
        return rng.choice(_JUNK)
    container, key = rng.choice(slots)
    r = rng.random()
    if r < 0.3:
        del container[key]
    elif r < 0.6:
        donor, donor_key = rng.choice(slots)
        container[key] = json.loads(json.dumps(donor[donor_key]))
    else:
        container[key] = rng.choice(_JUNK)
    return doc


def _csv_text(rows):
    if not isinstance(rows, list):
        return str(rows)
    return "".join((",".join(map(str, r)) if isinstance(r, list) else str(r))
                   + "\n" for r in rows)


def test_exit_contract_under_mutated_fixtures(fixture_dir, capsys):
    # every mutated input ends in exit 0, 1 or 2; nothing escapes main();
    # the CSV profile is mutated as a list of rows of cells
    fx = str(fixture_dir)
    mutated = str(fixture_dir / "mutated")
    cases = [
        ("demo_complex.json", ["validate", mutated]),
        ("demo_timeline.json", ["validate", mutated]),
        ("standard_unknot.dga.json", ["validate", mutated]),
        ("demo_complex.json", ["barcode", mutated, "--engine", "both"]),
        ("demo_timeline.json", ["simulate", mutated]),
        ("two_copy.dga.json", ["linearize", mutated,
                               fx + "/two_copy.augmentation.json",
                               "--window", "9", "12"]),
        ("two_copy.augmentation.json", ["linearize",
                                        fx + "/two_copy.dga.json", mutated,
                                        "--window", "9", "12"]),
        ("sigma.json", ["bound", mutated, fx + "/betti.json",
                        "--oscillation", "49/10"]),
        ("betti.json", ["bound", fx + "/sigma.json", mutated,
                        "--profile", fx + "/profile.csv"]),
        ("profile.csv", ["bound", fx + "/sigma.json", fx + "/betti.json",
                         "--profile", mutated]),
    ]
    rng = random.Random(20261018)
    for name, argv in cases:
        text = (fixture_dir / name).read_text()
        is_csv = name.endswith(".csv")
        original = ([line.split(",") for line in text.splitlines()]
                    if is_csv else json.loads(text))
        for _ in range(200):
            doc = json.loads(json.dumps(original))
            for _ in range(rng.randint(1, 3)):
                doc = _mutate(rng, doc)
            text = _csv_text(doc) if is_csv else json.dumps(doc)
            with open(mutated, "w", encoding="utf-8") as fh:
                fh.write(text)
            try:
                code = main(argv)
            except (Exception, SystemExit) as exc:
                pytest.fail("%s on %s raised %r" % (argv[0], text, exc))
            capsys.readouterr()
            assert code in (0, 1, 2), (argv[0], text, code)


def test_undecodable_and_deeply_nested_files_exit_two(fixture_dir):
    # bytes that are not UTF-8 and nesting past the interpreter's recursion
    # limit are parse errors at the file, not tracebacks
    (fixture_dir / "bom.json").write_bytes(b"\xff\xfe{")
    (fixture_dir / "deep.json").write_bytes(b"[" * 50000)
    (fixture_dir / "bad.csv").write_bytes(b"t,max,min\n0,1,\xff\n")
    cases = [
        (["barcode", "bom.json"], "bom.json"),
        (["barcode", "deep.json"], "deep.json"),
        (["simulate", "deep.json"], "deep.json"),
        (["validate", "deep.json"], "deep.json"),
        (["bound", "sigma.json", "betti.json", "--profile", "bad.csv"],
         "bad.csv"),
    ]
    for argv, name in cases:
        for flags in ([], ["-O"]):
            proc = _cli(flags, argv, str(fixture_dir))
            assert proc.returncode == 2, (argv, flags, proc.stderr)
            assert "(at %s)" % name in proc.stderr, (argv, proc.stderr)
            assert "Traceback" not in proc.stderr


def test_exit_contract_under_byte_mutations(fixture_dir, capsys):
    # truncated, bit-flipped, byte-inserted and bracket-wrapped files end in
    # exit 0, 1 or 2 with nothing escaping main()
    fx = str(fixture_dir)
    mutated = str(fixture_dir / "mutated")
    cases = [
        ("demo_complex.json", ["barcode", mutated, "--engine", "both"]),
        ("demo_timeline.json", ["simulate", mutated]),
        ("standard_unknot.dga.json", ["validate", mutated]),
        ("two_copy.augmentation.json", ["linearize",
                                        fx + "/two_copy.dga.json", mutated,
                                        "--window", "9", "12"]),
        ("betti.json", ["bound", fx + "/sigma.json", mutated,
                        "--oscillation", "49/10"]),
        ("profile.csv", ["bound", fx + "/sigma.json", fx + "/betti.json",
                         "--profile", mutated]),
    ]
    rng = random.Random(20261019)
    for name, argv in cases:
        data = (fixture_dir / name).read_bytes()
        for i in range(40):
            k = rng.randrange(len(data))
            if i % 4 == 0:
                text = data[:k]
            elif i % 4 == 1:
                text = (data[:k] + bytes([data[k] ^ 1 << rng.randrange(8)])
                        + data[k + 1:])
            elif i % 4 == 2:
                text = data[:k] + bytes([rng.randrange(256)]) + data[k:]
            else:
                n = rng.choice([1, 100, 900, 1000, 5000])
                text = b"[" * n + data + b"]" * n
            with open(mutated, "wb") as fh:
                fh.write(text)
            try:
                code = main(argv)
            except (Exception, SystemExit) as exc:
                pytest.fail("%s on %r raised %r" % (argv[0], text, exc))
            capsys.readouterr()
            assert code in (0, 1, 2), (argv[0], text, code)
