"""Segment replay on the first 100 acceptance timelines.

A replay sample carries its time, generator actions, window, id-pairing and
a frame shared by its segment; its complex and barcode are built on
access.  The oracle rebuilds both at every sample and recomputes the pairing
from scratch.  The digests pin the ``check_transitions`` entries and the
vineyard CSV; they were recorded before samples stopped carrying complexes.

Run ``PYTHONPATH=src python tests/test_replay.py`` to print the current
digests.
"""

import csv
import gzip
import hashlib
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from chordbars import (F2, FP, INF, QQ, DriftSegment, PLPath, barcode_of,
                       canonical_form, check_transitions, random_timeline,
                       schemas, simulate, timelines, vineyard_rows)
from chordbars.barcodes import format_action
from chordbars.errors import ChordbarsError
from chordbars.piecewise import merge_times
from chordbars.schemas import vineyard_csv

from support import count_calls

FIELDS = [F2, FP(5), QQ]
COUNT = 100


def _timelines():
    # the seeds and fields of the acceptance set (tests/test_acceptance.py)
    for i in range(COUNT):
        rng = random.Random(30_000 + i)
        yield random_timeline(rng, FIELDS[i % 3], max_generators=12,
                              max_events=10)


def _replays():
    for initial, items in _timelines():
        yield items, simulate(initial, items)


@pytest.fixture(scope="module")
def replays():
    return list(_replays())


def replay_digests(traces):
    entries, csv = hashlib.sha256(), hashlib.sha256()
    for trace in traces:
        for e in check_transitions(trace).entries:
            entries.update(repr((e.kind, str(e.at), e.ok,
                                 e.detail)).encode())
        csv.update(vineyard_csv(vineyard_rows(trace)).encode())
    return entries.hexdigest(), csv.hexdigest()


PINNED = (
    "5aa075882553a7d62fce2637eba8a7da79e2f49c31018eb8c9056335ae0ce3b9",
    "95ef3edb4a2278d08de3f4ab887cebcf1ecaca9544a9a4b8bef83575efc2419e",
)


def test_replay_outputs_are_pinned(replays):
    assert replay_digests(trace for _items, trace in replays) == PINNED


def test_replay_counts_are_pinned(monkeypatch):
    # samples, critical times, crossings, segments and events over the 100
    # timelines, recorded before segment replay moved to one integer grid;
    # the reductions replay runs: a sample keeps the last one's pairing
    # while the frame and every degree's (action, id) order stand; and, for
    # the timelines read from their JSON documents, the values the library
    # reader reads (a drift item reads each knot-time string once, t0 and
    # t1 too where a knot has them, as in 689 of the 710 segments; the
    # births' common actions are taken off, as the count was pinned by a
    # hook on schemas._action, which the item table calls unhooked) and the
    # paths evaluated (only a path off its segment's full grid, none here,
    # and never at a sample)
    docs = [schemas.serialize_timeline(*t) for t in _timelines()]
    reductions = count_calls(monkeypatch, timelines, "_reduce")
    reads = count_calls(monkeypatch, schemas, "as_action")
    evaluations = count_calls(monkeypatch, PLPath, "values_at")
    traces = [simulate(*schemas.parse_timeline(doc)) for doc in docs]
    segments = [st for trace in traces for st in trace.segments]
    births = sum(ev.kind == "birth" for trace in traces
                 for ev in trace.events)
    assert (sum(len(trace.samples) for trace in traces),
            sum(len(st.critical) for st in segments),
            sum(len(st.crossings) for st in segments),
            len(segments),
            sum(len(trace.events) for trace in traces),
            len(reductions), len(reads) - births, len(evaluations)) == \
        (3841, 4351, 3051, 710, 529, 1665, 9256, 0)


def test_samples_rebuild_complex_pairing_and_barcode(replays):
    for _items, trace in replays:
        for s in trace.samples:
            cx = s.complex
            assert cx.window == s.window
            assert {g.id: g.action for g in cx.generators} == s.actions
            form = canonical_form(cx)
            assert s.pairs == frozenset(
                {(killed, killer) for killer, killed in form.pairs}
                | {(gid, None) for gid in form.unpaired})
            assert barcode_of(cx) == s.barcode


def test_segment_frames_are_valid_complexes(replays):
    # replay builds no complex per segment: the initial complex was
    # validated, and each event checks the ids, degrees and ∂² it changes.
    # So each segment's first sample builds, and the frame's differential
    # is already the complex's own (coerced, no zero entry, no empty row).
    for _items, trace in replays:
        for st in trace.segments:
            s = trace.samples[st.sample_indices[0]]
            cx = s.complex
            assert s.frame[2] == {g.id: cx.differential_raw(g.id)
                                  for g in cx.generators
                                  if cx.differential_raw(g.id)}


def test_midpoint_actions_are_path_values(replays):
    # each sample sits at the midpoint of two consecutive critical times and
    # carries the paths' and window edges' values there (a segment without
    # an edge path keeps the incoming edge); critical_actions(k, gids)
    # evaluates the paths of gids, and no other, at critical time k
    for items, trace in replays:
        drifts = [it for it in items if isinstance(it, DriftSegment)]
        assert len(drifts) == len(trace.segments)
        a, b = trace.samples[0].window
        for seg, st in zip(drifts, trace.segments):
            wa = seg.window_a or PLPath.constant(a, seg.t0, seg.t1)
            wb = seg.window_b or (INF if b == INF
                                  else PLPath.constant(b, seg.t0, seg.t1))
            assert (st.critical[0], st.critical[-1]) == (seg.t0, seg.t1)
            assert set(st.crossings) <= set(st.critical)
            # check_transitions walks the two lists side by side: crossings
            # is a sublist of critical, the same objects in the same order
            rest = iter(st.critical)
            assert all(any(c is t for t in rest) for c in st.crossings)
            assert len(st.critical) == len(st.sample_indices) + 1
            ids = sorted(seg.actions)
            for k, t in enumerate(st.critical):
                assert st.critical_actions(k, ids) == {
                    gid: path.value(t) for gid, path in seg.actions.items()}
                assert st.critical_actions(k, ids[k % 2::2]) == {
                    gid: seg.actions[gid].value(t) for gid in ids[k % 2::2]}
            for k, i in enumerate(st.sample_indices):
                s = trace.samples[i]
                assert s.t == (st.critical[k] + st.critical[k + 1]) / 2
                assert s.actions == {gid: p.value(s.t)
                                     for gid, p in seg.actions.items()}
                assert s.window == (wa.value(s.t),
                                    INF if wb == INF else wb.value(s.t))
            a, b = wa.end_value, INF if wb == INF else wb.end_value


def test_critical_times_lie_between_consecutive_samples(replays):
    # check_transitions reads a segment's critical time k between the
    # trace's samples sample_indices[0] + k - 1 and the one after: strictly
    # between them, but for the family's first and last samples, which sit
    # on its ends.  A later segment starts where the one before ends, and
    # every event sits on such a boundary.
    for _items, trace in replays:
        samples, segments = trace.samples, trace.segments
        for st in segments:
            first = st.sample_indices[0]
            assert st.sample_indices == list(
                range(first, first + len(st.critical) - 1))
            for k, t in enumerate(st.critical):
                i = first + k - 1
                assert samples[i].t < t or i == 0
                assert t < samples[i + 1].t or i + 1 == len(samples) - 1
                assert samples[i].t <= t <= samples[i + 1].t
        assert samples[0].t == segments[0].critical[0]
        assert samples[-1].t == segments[-1].critical[-1]
        ends = [st.critical[-1] for st in segments[:-1]]
        assert [st.critical[0] for st in segments[1:]] == ends
        assert [ev.time for ev in trace.events] == sorted(
            set(ends) & {ev.time for ev in trace.events})


def _csv_writer_text(rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["t", "bar_id", "start", "end"])
    for t, bar_id, start, end, _degree in rows:
        w.writerow([format_action(t), bar_id, format_action(start),
                    format_action(end)])
    return buf.getvalue()


def test_vineyard_csv_matches_a_csv_writer(replays):
    # the writer formats each row itself; a csv.writer over format_action
    # texts gives the same bytes, infinite ends included
    infinite = 0
    for _items, trace in replays:
        rows = vineyard_rows(trace)
        infinite += sum(row[3] == INF for row in rows)
        assert vineyard_csv(rows) == _csv_writer_text(rows)
    assert infinite


def _refined(path, times):
    """The same path with breakpoints at ``times`` (ascending, its own
    among them)."""
    return PLPath(zip(times, path.values_at(times)))


def _uneven(rng, initial, items):
    """The family with extra collinear knots on every path and window edge,
    a random subset of sixths of each segment per path, as fresh Fractions:
    the knot lists differ, or are equal without sharing objects."""
    a, b = initial.window
    out = []
    for it in items:
        if isinstance(it, DriftSegment):
            t0, t1 = it.t0, it.t1
            sixths = [t0 + (t1 - t0) * Fraction(k, 6) for k in range(1, 6)]

            def knots():
                return [Fraction(t.numerator, t.denominator) for t in
                        sorted([t0, t1, *rng.sample(sixths, rng.randrange(3))])]
            it = DriftSegment(
                t0, t1, {gid: _refined(p, knots())
                         for gid, p in it.actions.items()},
                _refined(PLPath.constant(a, t0, t1), knots()),
                INF if b == INF
                else _refined(PLPath.constant(b, t0, t1), knots()))
        out.append(it)
    return out


def _on_union(items):
    """Every path and window edge refined onto the sorted union of its
    segment's knot times, one shared Fraction per time."""
    out = []
    for it in items:
        if isinstance(it, DriftSegment):
            edges = [p for p in (it.window_a, it.window_b)
                     if isinstance(p, PLPath)]
            grid = merge_times(*[p.breakpoint_times()
                                 for p in [*it.actions.values(), *edges]])
            it = DriftSegment(
                it.t0, it.t1,
                {gid: _refined(p, grid) for gid, p in it.actions.items()},
                *[_refined(p, grid) if isinstance(p, PLPath) else p
                  for p in (it.window_a, it.window_b)])
        out.append(it)
    return out


def _replay_view(trace):
    return ([(s.t, s.actions, s.window, s.pairs) for s in trace.samples],
            [(st.critical, st.crossings, st.sample_indices)
             for st in trace.segments],
            vineyard_rows(trace),
            [(e.kind, e.at, e.ok, e.detail)
             for e in check_transitions(trace).entries])


def test_segment_grid_is_the_union_of_knot_times(monkeypatch):
    # paths with different knot lists, or equal ones read apart, replay as
    # the same family refined onto the union of its knot times, on which
    # every path has one shared knot list and no union is taken
    merges = count_calls(monkeypatch, timelines, "merge_times")
    rng = random.Random(26)
    unions = segments = 0
    for initial, items in itertools.islice(_timelines(), 30):
        uneven = _uneven(rng, initial, items)
        del merges[:]
        trace = simulate(initial, uneven)
        got, n = _replay_view(trace), len(merges)
        assert _replay_view(simulate(initial, _on_union(uneven))) == got
        assert len(merges) == n
        unions += n
        segments += len(trace.segments)
    assert 0 < unions < segments


_GRID_DOC = {
    "initial": {"field": "Q", "window": ["0", "inf"],
                "generators": [{"id": "x", "action": "1", "degree": 0},
                               {"id": "y", "action": "2", "degree": 0},
                               {"id": "z", "action": "3", "degree": 1}],
                "differential": {"z": [{"id": "y", "coeff": "1"}]}},
    "items": [{"type": "drift", "t0": "0", "t1": "1", "actions": {
        "x": [[0, "1"], ["1/2", "3"], [1, "5/2"]],
        "y": [["0", "2"], ["2/4", "2"], ["1", "2"]],
        "z": [[0, "3"], ["1/2", "4"], ["1", "4"]]}}]}


@pytest.mark.parametrize("y_knot, unions", [("2/4", 0), ("1/3", 1)])
def test_knot_times_read_apart_share_the_grid(monkeypatch, y_knot, unions):
    # int knots and "1/2" / "2/4" are read into distinct equal Fractions:
    # they still make one knot list, and a different knot makes a union
    doc = schemas.loads(schemas.dumps(_GRID_DOC))
    doc["items"][0]["actions"]["y"][1][0] = y_knot
    initial, items = schemas.parse_timeline(doc)
    merges = count_calls(monkeypatch, timelines, "merge_times")
    got = _replay_view(simulate(initial, items))
    assert len(merges) == unions
    assert _replay_view(simulate(initial, _on_union(items))) == got
    assert [len(st.crossings) for st in simulate(initial, items).segments] \
        == [1]


# ---------------------------------------------------------------------------
# a regression net of mutated drift documents
# ---------------------------------------------------------------------------

MUTATIONS = 600
MUTATIONS_PINNED = (
    "127c92b8b8d522a0b5d497a2828352892e91db2c858fb2bfd4d7e92f93ac44f6")


def _degrees(doc):
    """Every generator id of a timeline document with its degree."""
    out = {g["id"]: g["degree"] for g in doc["initial"]["generators"]}
    for it in doc["items"]:
        if it["type"] == "birth":
            out.update([it["x"], it["y"]])
        elif it["type"].startswith("entry"):
            out[it["id"]] = it["degree"]
    return out


def _mutate(rng, doc):
    """One seeded degeneracy in one drift item of ``doc``, on the interior
    knots of paths that share their knot times: a knot value copied to one
    path (two in a row: a coincidence), to two paths (three-way), across
    degrees, or two paths' values swapped at a knot."""
    degrees = _degrees(doc)
    drifts = [it for it in doc["items"] if it["type"] == "drift"]
    paths = rng.choice(drifts)["actions"]
    ids = sorted(g for g, p in paths.items() if isinstance(p, list))
    g1 = rng.choice(ids)
    times = [t for t, _ in paths[g1]]
    ids = [g for g in ids if g != g1 and [t for t, _ in paths[g]] == times]
    kind = rng.choice(["shared", "copy", "three", "cross", "swap"])
    if kind == "cross":
        ids = [g for g in ids if degrees[g] != degrees[g1]]
    if not ids or len(times) < 3 or (kind in ("copy", "three")
                                     and len(times) < 4):
        return kind + " (none)"
    k = rng.randrange(1, len(times) - (2 if kind in ("copy", "three") else 1))
    others = rng.sample(ids, min(len(ids), 2 if kind == "three" else 1))
    for g2 in others:
        for i in ([k, k + 1] if kind in ("copy", "three") else [k]):
            if kind == "swap":
                paths[g1][i][1], paths[g2][i][1] = \
                    paths[g2][i][1], paths[g1][i][1]
            else:
                paths[g2][i][1] = paths[g1][i][1]
    return "%s %s %s %d" % (kind, g1, others, k)


def mutation_digest(docs, count=MUTATIONS):
    """One sha256 over ``count`` seeded mutations of ``docs``: each adds its
    error class and message, or its output digests, every sample's pairs
    and every segment's critical times and crossings."""
    h = hashlib.sha256()
    for m in range(count):
        rng = random.Random(m)
        doc = json.loads(docs[m % len(docs)])
        h.update(_mutate(rng, doc).encode())
        try:
            trace = simulate(*schemas.parse_timeline(doc))
            out = (replay_digests([trace]),
                   [sorted(s.pairs, key=repr) for s in trace.samples],
                   [(st.critical, st.crossings) for st in trace.segments])
        except ChordbarsError as exc:
            out = (type(exc).__name__, str(exc))
        h.update(repr(out).encode())
    return h.hexdigest()


def _drift_docs():
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs"
    with gzip.open(path / "drift.json.gz") as fh:
        return json.load(fh)["docs"]


def test_drift_mutations_are_pinned():
    # seeded degeneracies in the drift benchmark documents: coincidences,
    # ties, cross-degree meetings and swaps; refusals and outputs alike
    assert mutation_digest(_drift_docs()) == MUTATIONS_PINNED


if __name__ == "__main__":
    print(replay_digests(trace for _items, trace in _replays()))
    print(mutation_digest(_drift_docs()))
