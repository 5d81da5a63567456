"""Command-line behaviour: exit codes, formats, determinism."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import chordbars
from chordbars import schemas, simulate
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
    code, out, _ = _run(capsys, ["validate", str(path)])
    assert code == 1
    assert "FAIL" in out
    assert "invalid:" in out.splitlines()[-1]


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
    capsys.readouterr()


def test_optimized_mode_output_identical(fixture_dir):
    # ``python -O`` strips asserts; the CLI must not depend on them
    fx = str(fixture_dir)
    commands = [
        ["validate", "demo_complex.json"],
        ["validate", "demo_timeline.json"],
        ["validate", "standard_unknot.dga.json"],
        ["barcode", "demo_complex.json", "--engine", "both",
         "--format", "structured"],
        ["simulate", "demo_timeline.json"],
        ["simulate", "demo_timeline.json", "--vineyard", "vine.csv"],
        ["linearize", "two_copy.dga.json", "two_copy.augmentation.json",
         "--window", "9", "12"],
        ["bound", "sigma.json", "betti.json", "--oscillation", "49/10"],
        ["bound", "sigma.json", "betti.json", "--profile", "profile.csv"],
    ]
    env = dict(os.environ)
    src = str(Path(chordbars.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    vine = fixture_dir / "vine.csv"
    for argv in commands:
        runs = []
        for flags in ([], ["-O"]):
            proc = subprocess.run([sys.executable] + flags
                                  + ["-m", "chordbars"] + argv, cwd=fx,
                                  env=env, capture_output=True, text=True)
            # the vineyard CSV is compared byte for byte too
            runs.append((proc, vine.read_bytes() if "--vineyard" in argv
                         else None))
        (plain, plain_csv), (optimized, optimized_csv) = runs
        assert plain.returncode == 0, (argv, plain.stderr)
        assert (optimized.returncode, optimized.stdout, optimized_csv) == \
            (plain.returncode, plain.stdout, plain_csv), argv
    assert vine.read_text().startswith("t,bar_id,start,end\n")


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
