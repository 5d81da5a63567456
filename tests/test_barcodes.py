"""Barcodes: canonical pairing, the independent definitional engine, table
recovery, and counting identities."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import chordbars
from chordbars import (F2, FP, INF, QQ, Bar, Barcode, FilteredComplex,
                       barcode_of, barcode_table_lines, canonical_form,
                       check_canonical_form, extract_table, random_complex,
                       recover)
from chordbars.barcodes import barcode_csv_rows, barcode_diagram_lines
from chordbars.complexes import Generator, random_differential
from chordbars.errors import (EngineMismatch, InconsistentTable,
                              ValidationError)

from support import (bars_as_tuples, bottleneck_distance,
                     extract_table_by_probes, persisting_count, rank_phi)

q = Fraction
FIELDS = [F2, FP(5), QQ]


def _crossing_fixture(field, d1, d2):
    return FilteredComplex(field, (0, INF),
                           [("x1", 0, 0), ("x2", q(1, 2), 0),
                            ("y1", 1, 1), ("y2", 2, 1)],
                           {"y1": d1, "y2": d2})


def test_empty_and_single_generator():
    cx = FilteredComplex(F2, (0, INF), [], {})
    assert barcode_of(cx, engine="both").bars == ()
    cx = FilteredComplex(F2, (0, INF), [("c", 2, 1)], {})
    assert bars_as_tuples(barcode_of(cx, engine="both")) == [(2, INF, 1)]


def test_canceling_pair_single_finite_bar():
    cx = FilteredComplex(QQ, (0, 4), [("x", 1, 0), ("y", 2, 1)],
                         {"y": {"x": q(7, 3)}})
    assert bars_as_tuples(barcode_of(cx, engine="both")) == [(1, 2, 0)]


def test_crossing_pairs_frozen():
    # two births then two deaths; the pairing must cross: the later killer
    # takes the earlier birth
    for field, d1 in [(F2, {"x1": 1, "x2": 1}),
                      (FP(5), {"x1": 2, "x2": 3}),
                      (QQ, {"x1": q(1, 2), "x2": -1})]:
        cx = _crossing_fixture(field, d1, {"x1": 1})
        form = canonical_form(cx)
        assert sorted(form.pairs) == [("y1", "x2"), ("y2", "x1")]
        assert form.unpaired == ()
        assert bars_as_tuples(barcode_of(cx, engine="both")) == [
            (0, 2, 0), (q(1, 2), 1, 0)]


def test_nested_pairs_frozen():
    # killers in the same order as births: nested bars, no crossing
    cx = _crossing_fixture(QQ, {"x2": 1}, {"x1": 1})
    form = canonical_form(cx)
    assert sorted(form.pairs) == [("y1", "x2"), ("y2", "x1")]
    cx2 = _crossing_fixture(QQ, {"x1": 1}, {"x2": 1})
    assert sorted(canonical_form(cx2).pairs) == [("y1", "x1"), ("y2", "x2")]
    assert bars_as_tuples(barcode_of(cx2, engine="both")) == [
        (0, 1, 0), (q(1, 2), 2, 0)]


def test_base_change_is_action_preserving():
    for seed in range(30):
        rng = random.Random(seed)
        cx = random_complex(rng, rng.choice(FIELDS), max_generators=12)
        form = canonical_form(cx)
        check_canonical_form(cx, form)
        gens = {qq.id: qq for qq in cx.generators}
        acts = [gens[gid].action for gid in form.order]
        for m, col in enumerate(form.base_change):
            for r in col:
                assert acts[r] <= acts[m]


def test_check_canonical_form_rejects_scaled_killer():
    for field in (FP(5), QQ):
        cx = _crossing_fixture(field, {"x1": 1, "x2": 1}, {"x1": 1})
        form = canonical_form(cx)
        check_canonical_form(cx, form)
        col = form.base_change[form.order.index("y1")]
        for r in col:  # scale the killer column by 2
            col[r] = field.mul(col[r], field.coerce(2))
        with pytest.raises(EngineMismatch, match="'y1'"):
            check_canonical_form(cx, form)
        # an entry below the diagonal: x1's column reaches x2's row
        form = canonical_form(cx)
        form.base_change[0][1] = field.one_raw
        with pytest.raises(EngineMismatch,
                           match="column of 'x1' is not upper-triangular"):
            check_canonical_form(cx, form)
    cx = FilteredComplex(QQ, (0, INF), [("c", 2, 1)], {})
    form = canonical_form(cx)
    form.unpaired = ()
    with pytest.raises(EngineMismatch, match="exactly once"):
        check_canonical_form(cx, form)
    # a singular base change satisfies D G = G T trivially
    form = canonical_form(cx)
    del form.base_change[0][0]
    with pytest.raises(EngineMismatch, match="'c'"):
        check_canonical_form(cx, form)


def test_engine_both_checks_the_form_under_optimize():
    # the witness is an explicit check, not an assert: ``-O`` keeps it
    script = """
import chordbars.barcodes as bc
from chordbars import QQ, INF, FilteredComplex
from chordbars.errors import EngineMismatch
real = bc.canonical_form
def broken(C):
    form = real(C)
    col = form.base_change[1]  # double the killer column of y
    for r in col:
        col[r] *= 2
    return form
bc.canonical_form = broken
cx = FilteredComplex(QQ, (0, INF), [("x", 0, 0), ("y", 1, 1)], {"y": {"x": 1}})
try:
    bc.barcode_of(cx, engine="both")
except EngineMismatch as exc:
    print("EngineMismatch:", exc)
"""
    env = dict(os.environ)
    src = str(Path(chordbars.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for flags in ([], ["-O"]):
        run = subprocess.run([sys.executable] + flags + ["-c", script],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0, (flags, run.stderr)
        assert run.stdout.startswith("EngineMismatch:"), (flags, run.stdout)
        assert "'y'" in run.stdout


def test_engine_gates():
    cx = FilteredComplex(QQ, (0, INF), [("x", 0, 0), ("y", 1, 1), ("z", 2, 0)],
                         {"y": {"x": 1}})
    assert bars_as_tuples(barcode_of(cx, engine="definitional")) == [
        (0, 1, 0), (2, INF, 0)]
    with pytest.raises(ValidationError) as info:
        barcode_of(cx, engine="x")
    assert type(info.value) is ValidationError \
        and str(info.value) == "unknown engine 'x'"


def test_engine_both_refuses_disagreeing_engines(monkeypatch):
    # the definitional engine made to drop a bar: "both" names the two
    # barcodes it saw
    import chordbars.barcodes as bc
    real = bc.barcode_definitional
    monkeypatch.setattr(bc, "barcode_definitional",
                        lambda C: Barcode(real(C).bars[1:]))
    cx = FilteredComplex(QQ, (0, INF), [("x", 0, 0), ("y", 1, 1), ("z", 2, 0)],
                         {"y": {"x": 1}})
    with pytest.raises(EngineMismatch) as info:
        barcode_of(cx, engine="both")
    assert str(info.value) == (
        "reduction and definitional engines disagree: "
        "Barcode([Bar[0, 1) deg 0, Bar[2, inf) deg 0]) vs "
        "Barcode([Bar[2, inf) deg 0])")


def test_window_top_is_not_a_bar_end():
    # unpaired generators run to infinity even when the window is bounded
    cx = FilteredComplex(F2, (0, 5), [("c", 2, 1)], {})
    assert bars_as_tuples(barcode_of(cx, engine="both")) == [(2, INF, 1)]


def test_table_roundtrip_frozen():
    cx = _crossing_fixture(F2, {"x1": 1, "x2": 1}, {"x1": 1})
    B = barcode_of(cx)
    crit, table = extract_table(B)
    assert crit == [0, q(1, 2), 1, 2]
    assert table == [[1, 1, 1, 0],
                     [0, 1, 0, 0],
                     [0, 0, 0, 0],
                     [0, 0, 0, 0]]
    B2 = recover(crit, table)
    assert sorted((b.start, b.end) for b in B2.bars) == [
        (0, 2), (q(1, 2), 1)]


def test_recover_rejects_inconsistent_tables():
    with pytest.raises(InconsistentTable):
        recover([1, 0], [[0, 0], [0, 0]])
    with pytest.raises(InconsistentTable):
        recover([0, 1], [[0, 0], [0, 0], [0, 0]])
    with pytest.raises(InconsistentTable):
        recover([0, 1], [[0, 0], [-1, 0]])
    with pytest.raises(InconsistentTable):
        recover([0, 1], [[0, 0], [1, 0]])  # alive below its own start
    with pytest.raises(InconsistentTable):
        recover([0, 1], [[0, 1], [0, 0]])  # resurrection
    # a count that is not an int is a typed error, bool included
    for bad in (1.5, 1.0, "1", None, True, False, q(1)):
        with pytest.raises(InconsistentTable):
            recover([0, 1], [[bad, 0], [0, 0]])
        with pytest.raises(InconsistentTable):
            recover([0, 1], [[1, 0], [0, bad]])


def _refusal(crit, table):
    with pytest.raises(InconsistentTable) as info:
        recover(crit, table)
    return str(info.value)


def test_table_reader_names_the_first_bad_entry():
    # entries are read in row-major order, each through its checks in
    # order: an int (bool excluded), then non-negative, then zero below
    # its start's level; a bad row after a good one is read too
    rows = [
        ([0, 1], [[1.5, -1], [0, 0]],
         "count at (0, 0) must be an integer, got 1.5"),
        ([0, 1], [[-1, True], [0, 0]], "negative count at (0, 0)"),
        ([0, 1], [[0, 0], [True, -1]],
         "count at (1, 0) must be an integer, got True"),
        ([0, 1], [[0, 0], [-1, "x"]], "negative count at (1, 0)"),
        ([0, q(1, 2), 2], [[0, 0, 0], [0, 0, 0], [0, 2, -1]],
         "bars starting at 2 cannot be alive below it (entry (2, 1))"),
        ([0, 1], [[1, 1], [0, "1"]],
         "count at (1, 1) must be an integer, got '1'"),
        ([0, q(1, 2)], [[1, 0], [0, None]],
         "count at (1, 1) must be an integer, got None"),
        ([0, 1], [[0, 1], [0, None]],
         "persisting counts increased from probe 0 to 1 for start 0"),
        ([0, q(1, 2), 1], [[1, 1, 0], [0, 0, 1], [0, 0, 0]],
         "persisting counts increased from probe 1 to 2 for start 1/2"),
        ([0, 1], [[0, 0], [0, 0], [0, 0]], "table must be 2 x 2"),
        ([0, 1], [[0, 0], [0]], "table must be 2 x 2"),
        ([1, 0], [[0, 0], [0, 0]], "critical values must be strictly increasing"),
        ([0, 0], [[0, 0], [0, 0]], "critical values must be strictly increasing"),
        ([0, 1, 1], [[0] * 3] * 3, "critical values must be strictly increasing"),
    ]
    for crit, table, message in rows:
        assert _refusal(crit, table) == message, (crit, table)


def test_table_reader_accepts_int_subclasses():
    class Count(int):
        pass

    B = recover([0, 1], [[Count(2), Count(1)], [Count(0), Count(1)]])
    assert bars_as_tuples(B) == [(0, 1, None), (0, INF, None), (1, INF, None)]
    assert _refusal([0, 1], [[Count(0), Count(1)], [0, 0]]) == (
        "persisting counts increased from probe 0 to 1 for start 0")


def test_bars_and_tables_stay_exact():
    # ends and critical values go through as_action: no float ever turns
    # into a binary fraction, and unreadable values are typed errors
    assert Bar(0, q(1, 10)).end == q(1, 10)
    assert Bar("1/3", 1).start == q(1, 3)
    assert Bar(0, "inf").is_infinite and Bar(0, INF).is_infinite
    for start, end in [(0, 0.1), (0.5, 1), ("x", 1), (0, "x"), (True, 2),
                       (0, "1/0"), ("inf", INF)]:
        with pytest.raises(ValidationError):
            Bar(start, end)
    assert recover(["1/10", 1], [[1, 0], [0, 1]]).bars[0].start == q(1, 10)
    for crit in ([0.1, 1], ["x", 1], [0, "inf"]):
        with pytest.raises(ValidationError):
            recover(crit, [[1, 0], [0, 1]])


def test_table_roundtrip_random():
    for seed in range(60):
        rng = random.Random(1000 + seed)
        cx = random_complex(rng, rng.choice(FIELDS))
        B = barcode_of(cx)
        crit, table = extract_table(B)
        B2 = recover(crit, table)
        assert sorted((b.start, b.end) for b in B.bars) == \
            sorted((b.start, b.end) for b in B2.bars)


def test_table_matches_probe_definition():
    # entry [j][i] counts the bars from crit[j] alive at the probe between
    # crit[i] and crit[i + 1]: half-open bars, infinite ones past the top
    barcodes = [barcode_of(random_complex(random.Random(5000 + seed),
                                          FIELDS[seed % 3]))
                for seed in range(45)]
    barcodes.append(Barcode(
        [Bar(0, 2), Bar(0, 2), Bar(0, INF), Bar(0, INF), Bar(q(1, 2), 2),
         Bar(q(1, 2), INF), Bar(2, 3), Bar(2, 3), Bar(3, INF)]))
    barcodes.append(Barcode())
    for B in barcodes:
        assert extract_table(B) == extract_table_by_probes(B)


def test_engine_agreement_random():
    for seed in range(60):
        rng = random.Random(2000 + seed)
        cx = random_complex(rng, rng.choice(FIELDS))
        barcode_of(cx, engine="both")  # raises EngineMismatch on failure


def test_engine_agreement_with_tied_actions():
    # two to four distinct actions: generators one degree apart share
    # levels, and the oracle's rank streams reach full row rank before
    # their last column
    for seed in range(90):
        rng = random.Random(7000 + seed)
        field = FIELDS[seed % 3]
        values = rng.sample(range(8), rng.randint(2, 4))
        gens = sorted((Generator("g%02d" % i, q(rng.choice(values), 2),
                                 rng.randint(0, 2))
                       for i in range(rng.randint(2, 14))),
                      key=lambda g: g.sort_key)
        cx = FilteredComplex(field, (0, INF), gens,
                             random_differential(rng, field, gens, 0.9))
        barcode_of(cx, engine="both")  # raises EngineMismatch on failure


def test_barcode_equality_is_multiset_equality():
    bars = [Bar(0, 2, 0), Bar(q(1, 2), 1, 0), Bar(0, INF, 1), Bar(0, 2, 0)]
    assert Barcode(bars) == Barcode(bars[::-1])
    assert Barcode(bars) != Barcode(bars[:3])
    assert Barcode(bars) != Barcode(bars[1:] + [Bar(0, 2, 1)])
    # bars that differ only in degree, or only in end, are different bars
    assert Barcode([Bar(0, 1)]) != Barcode([Bar(0, 1, 0)])
    assert Barcode([Bar(0, 1, 0)]) != Barcode([Bar(0, 1)])
    assert Barcode([Bar(0, INF, 0)]) != Barcode([Bar(0, 1, 0)])
    assert Barcode([Bar(0, 1, 0), Bar(0, INF, 0)]) == \
        Barcode([Bar(0, INF, 0), Bar(0, 1, 0)])
    assert Barcode() == Barcode([]) and Barcode() != ()


def test_persisting_counts():
    cx = _crossing_fixture(F2, {"x1": 1, "x2": 1}, {"x1": 1})
    B = barcode_of(cx)  # bars [0, 2) and [1/2, 1)
    assert persisting_count(B, q(3, 4)) == 2
    assert persisting_count(B, q(3, 2)) == 1
    assert persisting_count(B, q(3, 4), start_below=q(1, 4)) == 1
    assert persisting_count(B, 0) == 1       # [0, 2) contains its start
    assert persisting_count(B, 1) == 1       # [1/2, 1) is half-open


def test_persisting_count_matches_rank_oracle():
    for seed in range(25):
        rng = random.Random(3000 + seed)
        cx = random_complex(rng, rng.choice(FIELDS), max_generators=10)
        B = barcode_of(cx)
        levels = sorted({g.action for g in cx.generators})
        if not levels:
            continue
        probes = [levels[0] - 1] + [
            v + q(1, 8) for v in levels] + [levels[-1] + 1]
        for c in probes[:4]:
            for s in probes:
                if s < c:
                    continue
                # bars with start < c alive at s: rank of the induced map
                expected = rank_phi(cx, c, s + q(1, 16))
                got = persisting_count(B, s, start_below=c)
                assert got == expected, (seed, c, s)


def test_no_zero_length_bars():
    for seed in range(40):
        rng = random.Random(4000 + seed)
        cx = random_complex(rng, rng.choice(FIELDS))
        for b in barcode_of(cx).bars:
            assert b.is_infinite or b.end > b.start


def test_render_formats():
    cx = _crossing_fixture(F2, {"x1": 1, "x2": 1}, {"x1": 1})
    B = barcode_of(cx)
    assert barcode_table_lines(B) == ["[0, 2) deg 0", "[1/2, 1) deg 0"]
    rows = barcode_csv_rows(B)
    assert rows[0] == ("start", "end", "degree")
    assert ("1/2", "1", "0") in rows
    assert len(barcode_diagram_lines(B, width=30)) == 2
    assert barcode_diagram_lines(
        barcode_of(FilteredComplex(F2, (0, 1), [], {}))) == [
        "(empty barcode)"]


def test_diagram_refuses_widths_below_two():
    # a width below 2 would draw every bar from column 0
    B = barcode_of(_crossing_fixture(F2, {"x1": 1, "x2": 1}, {"x1": 1}))
    assert barcode_diagram_lines(B, width=2)[1].endswith("=|")
    for width in (1, 0, -3):
        with pytest.raises(ValidationError) as info:
            barcode_diagram_lines(B, width=width)
        assert str(info.value) == ("diagram width must be at least 2, got %d"
                                   % width)
    # a row holds width characters: more than 10,000 is refused too
    assert barcode_diagram_lines(B, width=10000)[1].endswith("=|")
    for width in (10001, 2 ** 32, 10 ** 20):
        with pytest.raises(ValidationError) as info:
            barcode_diagram_lines(B, width=width)
        assert str(info.value) == ("diagram width must be at most 10000, "
                                   "got %d" % width)


_BOTTLENECK = [
    ([], [], 0),
    # a lone bar matches the diagonal at half its length, and so do two
    # short bars far apart; bars of two degrees never match each other
    ([(0, 2, 0)], [], 1),
    ([(0, 2, 0)], [(5, 6, 0)], 1),
    ([(0, 4, 0)], [(0, 4, 1)], 2),
    ([(0, 10, 0), (1, 3, 0)], [(0, 11, 0)], 1),
    # infinite bars: unequal counts in a degree are infinitely far apart,
    # equal counts pair in order of their starts
    ([(0, INF, 0)], [], INF),
    ([(0, INF, 0)], [(0, INF, 1)], INF),
    ([(0, 10, 0)], [(0, INF, 0)], INF),
    ([(0, INF, 0), (10, INF, 0)], [(9, INF, 0), (1, INF, 0)], 1),
    # ties: equal bars on one side go to different partners
    ([(0, 10, 0), (0, 10, 0)], [(1, 10, 0), (0, 12, 0)], 2),
    ([(0, INF, 0), (0, INF, 0)], [(1, INF, 0), (3, INF, 0)], 3),
    ([(0, 4, 0), (0, 4, 0)], [(0, 4, 0), (0, 4, 0)], 0),
]


def test_bottleneck_reference_on_hand_cases():
    for xs, ys, want in _BOTTLENECK:
        A, B = (Barcode(Bar(*b) for b in bars) for bars in (xs, ys))
        assert bottleneck_distance(A, B) == want, (xs, ys)
        assert bottleneck_distance(B, A) == want, (ys, xs)
