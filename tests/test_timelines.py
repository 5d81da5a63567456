"""One-parameter families: simulation, transition rules, audits."""

import random
from fractions import Fraction

import pytest

from chordbars import (F2, FP, INF, QQ, Birth, Death, DriftSegment,
                       EntryAbove, EntryBelow, ExitAbove, ExitBelow,
                       FilteredComplex, HandleSlide, PLPath,
                       check_transitions, drift_speed_audit, random_timeline,
                       simulate, vineyard_rows)
from chordbars.errors import (ActionIncrease, ActionOutsideWindow,
                              EventPreconditionViolated,
                              NonGenericCrossing, SimultaneousBifurcations,
                              ValidationError)
from chordbars.timelines import SingularEvent

q = Fraction


def _pair_complex(field=F2, window=(0, INF)):
    return FilteredComplex(field, window,
                           [("a", 1, 0), ("b", q(3, 2), 1), ("c", 2, 1)],
                           {"b": {"a": 1}})


def test_empty_timeline_single_sample():
    cx = _pair_complex()
    trace = simulate(cx, [])
    assert len(trace.samples) == 1
    assert check_transitions(trace).ok


def test_pure_drift_moves_endpoints():
    cx = _pair_complex()
    trace = simulate(cx, [
        DriftSegment(0, 1, {"a": [(0, 1), (1, q(5, 4))],
                            "b": q(3, 2), "c": 2}),
    ])
    assert check_transitions(trace).ok
    rows = vineyard_rows(trace)
    # the finite bar's start follows the trajectory of its birth generator
    finite = [r for r in rows if r[3] != INF]
    assert finite[0][2] == 1 and finite[-1][2] == q(5, 4)
    assert all(len(r) == 5 for r in rows)


def test_touching_ranges_still_cross():
    # p peaks at 2 exactly when r bottoms out at 2: the value ranges only
    # touch, so the pair must not be pruned from crossing detection
    cx = FilteredComplex(F2, (0, INF), [("p", 1, 0), ("r", 3, 0)], {})
    trace = simulate(cx, [
        DriftSegment(0, 1, {"p": [(0, 1), (q(1, 2), 2), (1, 1)],
                            "r": [(0, 3), (q(1, 2), 2), (1, 3)]}),
    ])
    assert trace.segments[0].crossings == [q(1, 2)]
    assert check_transitions(trace).ok


def test_int_breakpoint_paths_stay_exact():
    # a PLPath with int breakpoints is coerced like a list of pairs, so
    # sample times and actions stay exact rationals
    cx = FilteredComplex(F2, (0, INF), [("p", 1, 0), ("r", 2, 0)], {})
    trace = simulate(cx, [
        DriftSegment(0, 1, {"p": PLPath([(0, 1), (1, 3)]),
                            "r": PLPath([(0, 2), (1, 2)])}),
    ])
    assert check_transitions(trace).ok
    assert [s.t for s in trace.samples] == [0, q(1, 4), q(3, 4), 1]
    assert all(type(s.t) is Fraction for s in trace.samples)


def test_slide_death_birth_script():
    cx = _pair_complex()
    items = [
        DriftSegment(0, q(1, 4), {"a": [(0, 1), (q(1, 4), q(9, 8))],
                                  "b": q(3, 2), "c": 2}),
        HandleSlide(q(1, 4), "c", {"b": 1}),
        DriftSegment(q(1, 4), q(1, 2),
                     {"a": [(q(1, 4), q(9, 8)), (q(1, 2), q(5, 4))],
                      "b": q(3, 2), "c": 2}),
        HandleSlide(q(1, 2), "c", {"b": 1}),  # cancels the first over F2
        DriftSegment(q(1, 2), q(3, 4),
                     {"a": [(q(1, 2), q(5, 4)), (q(3, 4), q(3, 2))],
                      "b": q(3, 2), "c": 2}),
        Death(q(3, 4), "b", "a"),
        DriftSegment(q(3, 4), q(7, 8), {"c": 2}),
        Birth(q(7, 8), ("u", 1), ("v", 0), 3),
        DriftSegment(q(7, 8), 1, {"c": 2, "v": 3,
                                  "u": [(q(7, 8), 3), (1, q(7, 2))]}),
    ]
    trace = simulate(cx, items)
    report = check_transitions(trace)
    assert report.ok, report.failures()
    kinds = [e.kind for e in report.entries]
    assert kinds.count("handle_slide") == 2
    assert "death" in kinds and "birth" in kinds
    details = {e.kind: e.detail for e in report.entries}
    assert details["handle_slide"] == "pairing unchanged"
    assert details["death"] == "the collided bar removed"
    assert details["birth"] == "one bar added at the common action"


def test_exit_entry_script():
    cx = FilteredComplex(F2, (0, 4),
                         [("x", 1, 0), ("y", 2, 1), ("z", 3, 0)],
                         {"y": {"x": 1}})
    items = [
        DriftSegment(0, q(1, 4), {"x": [(0, 1), (q(1, 4), 0)],
                                  "y": 2, "z": 3}),
        ExitBelow(q(1, 4), "x"),
        DriftSegment(q(1, 4), q(1, 2), {"y": 2,
                                        "z": [(q(1, 4), 3), (q(1, 2), 4)]}),
        ExitAbove(q(1, 2), "z"),
        DriftSegment(q(1, 2), q(3, 4), {"y": 2}),
        EntryBelow(q(3, 4), "w", 0, couplings={"y": 1}),
        DriftSegment(q(3, 4), q(7, 8), {"y": 2,
                                        "w": [(q(3, 4), 0), (q(7, 8), q(1, 2))]}),
        EntryAbove(q(7, 8), "v", 1, boundary={"w": 1}),
        DriftSegment(q(7, 8), 1, {"y": 2, "w": q(1, 2),
                                  "v": [(q(7, 8), 4), (1, q(7, 2))]}),
    ]
    trace = simulate(cx, items)
    report = check_transitions(trace)
    assert report.ok, report.failures()
    kinds = {e.kind for e in report.entries if e.kind not in
             ("continuity", "crossing")}
    assert kinds == {"exit_below", "exit_above", "entry_below", "entry_above"}


def _hold(t0, t1):
    return DriftSegment(t0, t1, {"a": 1, "b": q(3, 2), "c": 2})


def test_event_degrees_are_integers():
    for bad in (2.5, "1", "z", True):
        with pytest.raises(ValidationError):
            EntryBelow(0, "g", bad)
        with pytest.raises(ValidationError):
            EntryAbove(0, "g", bad)
        with pytest.raises(ValidationError):
            Birth(0, ("x", bad), ("y", 0), 1)
        with pytest.raises(ValidationError):
            Birth(0, ("x", 1), ("y", bad), 1)
    assert EntryBelow(0, "g", 2).degree == 2


def test_timeline_ending_in_an_event_rejected():
    with pytest.raises(ValidationError,
                       match="event at t = 1/2 lacks a sample on one side"):
        simulate(_pair_complex(), [_hold(0, q(1, 2)),
                                   HandleSlide(q(1, 2), "c", {"b": 1})])
    # a final birth or entry above leaves a degenerate complex behind
    with pytest.raises(ActionIncrease, match="strict decrease required"):
        simulate(_pair_complex(), [_hold(0, q(1, 2)),
                                   Birth(q(1, 2), ("x", 1), ("y", 0), 3)])
    with pytest.raises(ActionOutsideWindow, match="outside"):
        simulate(_pair_complex(window=(0, 4)), [
            _hold(0, q(1, 2)), EntryAbove(q(1, 2), "v", 0)])


def test_empty_window_rejected_without_generators():
    # with no generator left nothing else bounds the window: an empty one
    # is rejected at a sample and at the end, a touch between samples is not
    empty = FilteredComplex(F2, (0, 4), [], {})
    for top in ([(0, 4), (1, -4)], [(0, 4), (1, 0)]):
        with pytest.raises(ValidationError, match=r"empty window \[0, 0\)"):
            simulate(empty, [DriftSegment(0, 1, {}, window_b=top)])
    trace = simulate(empty, [DriftSegment(0, 1, {}, window_b=[
        (0, 4), (q(1, 2), 0), (1, 4)])])
    assert [s.window for s in trace.samples] == [
        (0, 4), (0, 2), (0, 2), (0, 4)]


def test_simultaneous_events_rejected():
    cx = _pair_complex()
    with pytest.raises(SimultaneousBifurcations):
        simulate(cx, [_hold(0, q(1, 2)),
                      HandleSlide(q(1, 2), "c", {"b": 1}),
                      HandleSlide(q(1, 2), "c", {"b": 1})])


def test_death_requires_canceling_position():
    cx = FilteredComplex(F2, (0, INF),
                         [("x1", 1, 0), ("x2", q(5, 4), 0), ("y", 2, 1)],
                         {"y": {"x1": 1, "x2": 1}})
    with pytest.raises(EventPreconditionViolated):
        simulate(cx, [
            DriftSegment(0, q(1, 2), {"x1": 1, "x2": q(5, 4),
                                      "y": [(0, 2), (q(1, 2), q(5, 4))]}),
            Death(q(1, 2), "y", "x2"),
        ])


def test_death_requires_action_merge():
    cx = _pair_complex()
    # actions never meet: the death is rejected
    with pytest.raises(EventPreconditionViolated):
        simulate(cx, [_hold(0, q(1, 2)), Death(q(1, 2), "b", "a")])


def test_unclaimed_gap_close_rejected():
    cx = _pair_complex()
    # the b->a gap hits zero at the segment end but a slide, not a death,
    # follows
    with pytest.raises(ActionIncrease):
        simulate(cx, [
            DriftSegment(0, q(1, 2), {"a": [(0, 1), (q(1, 2), q(3, 2))],
                                      "b": q(3, 2), "c": 2}),
            HandleSlide(q(1, 2), "c", {"b": 1}),
        ])


def test_gap_crossing_mid_segment_rejected():
    cx = _pair_complex()
    with pytest.raises(ActionIncrease, match=r"at t = 2/3$"):
        simulate(cx, [
            DriftSegment(0, 1, {"a": [(0, 1), (1, q(7, 4))],
                                "b": q(3, 2), "c": 2}),
        ])


def test_window_top_witness_is_exact_crossing():
    cx = _pair_complex(window=(0, 4))
    with pytest.raises(ActionOutsideWindow,
                       match=r"'c' reaches the window top at t = 2/3$"):
        simulate(cx, [
            DriftSegment(0, 1, {"a": 1, "b": q(3, 2),
                                "c": [(0, 2), (1, 5)]}),
        ])


def test_born_pair_inverting_witness_is_birth_time():
    cx = _pair_complex()
    # c crosses u at t = 5/6, a critical time unrelated to the u -> v edge
    with pytest.raises(ActionIncrease,
                       match=r"'u' -> 'v' .* at t = 1/2$"):
        simulate(cx, [
            _hold(0, q(1, 2)),
            Birth(q(1, 2), ("u", 1), ("v", 0), 3),
            DriftSegment(q(1, 2), 1, {"a": 1, "b": q(3, 2),
                                      "c": [(q(1, 2), 2), (1, 3)],
                                      "u": [(q(1, 2), 3), (1, q(5, 2))],
                                      "v": [(q(1, 2), 3), (1, q(7, 2))]}),
        ])


def test_window_bottom_witness_is_gap_piece():
    cx = _pair_complex(window=(0, 4))
    with pytest.raises(ActionOutsideWindow,
                       match=r"'a' dips below the window bottom in \[0, 1\]$"):
        simulate(cx, [
            DriftSegment(0, 1, {"a": [(0, 1), (1, -1)],
                                "b": q(3, 2), "c": 2}),
        ])


def test_birth_collision_rejected():
    cx = _pair_complex()
    with pytest.raises(NonGenericCrossing):
        simulate(cx, [_hold(0, q(1, 2)),
                      Birth(q(1, 2), ("u", 1), ("v", 0), 2)])


def test_tie_at_event_rejected():
    cx = FilteredComplex(F2, (0, INF), [("p", 1, 0), ("r", q(3, 2), 0)], {})
    with pytest.raises(NonGenericCrossing):
        simulate(cx, [
            DriftSegment(0, q(1, 2), {"p": 1,
                                      "r": [(0, q(3, 2)), (q(1, 2), 1)]}),
            HandleSlide(q(1, 2), "r", {"p": 1}),
        ])


def test_coinciding_trajectories_rejected():
    cx = FilteredComplex(F2, (0, INF), [("p", 1, 0), ("r", 1, 0)], {})
    with pytest.raises(NonGenericCrossing):
        simulate(cx, [DriftSegment(0, 1, {"p": 1, "r": 1})])


def test_exit_below_away_from_bottom_rejected():
    cx = _pair_complex()
    with pytest.raises(EventPreconditionViolated):
        simulate(cx, [_hold(0, q(1, 2)), ExitBelow(q(1, 2), "a")])


def test_slide_must_preserve_action_order():
    cx = _pair_complex()
    # target "b" (action 3/2) absorbing "c" (action 2) breaks the order
    with pytest.raises(EventPreconditionViolated):
        simulate(cx, [_hold(0, q(1, 2)), HandleSlide(q(1, 2), "b", {"c": 1})])


def test_tampered_trace_fails_checker():
    cx = _pair_complex()
    items = [
        DriftSegment(0, q(1, 2), {"a": 1, "b": q(3, 2), "c": 2}),
        HandleSlide(q(1, 2), "c", {"b": 1}),
        DriftSegment(q(1, 2), 1, {"a": 1, "b": q(3, 2), "c": 2}),
    ]
    trace = simulate(cx, items)
    assert check_transitions(trace).ok
    rec = trace.events[0]
    sample = trace.samples[rec.post_sample]
    sample.pairs = frozenset({("a", None), ("b", None), ("c", None)})
    report = check_transitions(trace)
    assert not report.ok
    assert any(e.kind == "handle_slide" and not e.ok for e in report.entries)


def test_bare_event_rejected():
    cx = _pair_complex()
    with pytest.raises(ValidationError) as info:
        simulate(cx, [_hold(0, q(1, 2)), SingularEvent(q(1, 2)),
                      _hold(q(1, 2), 1)])
    assert "unknown event kind 'event'" in str(info.value)


def test_family_ends_on_a_crossing_are_checked():
    # g1 and g2 tie at the family's first and last time, so the first and
    # the last sample pair them differently from their neighbouring midpoint
    cx = FilteredComplex(F2, (0, INF),
                         [("x", 0, 0), ("y", 1, 0), ("g1", 2, 1), ("g2", 2, 1)],
                         {"g1": {"x": 1, "y": 1}, "g2": {"y": 1}})
    trace = simulate(cx, [
        DriftSegment(0, 1, {"x": 0, "y": 1, "g1": [(0, 2), (1, 4)], "g2": 2}),
        DriftSegment(1, 2, {"x": 0, "y": 1, "g1": [(1, 4), (2, 2)], "g2": 2}),
    ])
    first, mid, last = (trace.samples[i] for i in (0, 1, -1))
    assert first.pairs == {("x", "g2"), ("y", "g1")}
    assert mid.pairs == {("x", "g1"), ("y", "g2")}
    assert last.pairs == first.pairs
    report = check_transitions(trace)
    assert [repr(e) for e in report.entries] == [
        "CheckEntry(crossing @ t=0: ok)", "CheckEntry(crossing @ t=2: ok)",
        "CheckEntry(continuity @ t=1: ok)"]
    wrong = frozenset({("x", None), ("y", None), ("g1", None), ("g2", None)})
    for sample, t in ((first, 0), (last, 2)):
        sample.pairs, kept = wrong, sample.pairs
        failures = check_transitions(trace).failures()
        assert [(e.kind, e.time) for e in failures] == [("crossing", t)]
        sample.pairs = kept


def test_vineyard_rows_shape_and_ids():
    cx = _pair_complex()
    trace = simulate(cx, [
        DriftSegment(0, 1, {"a": [(0, 1), (1, q(5, 4))],
                            "b": q(3, 2), "c": 2}),
    ])
    rows = vineyard_rows(trace)
    ids = {r[1] for r in rows}
    assert all(i.startswith("b") and len(i) == 4 for i in ids)
    # a persisting bar keeps its id from sample to sample
    by_id = {}
    for t, bar_id, start, end, degree in rows:
        by_id.setdefault(bar_id, []).append((t, start, end, degree))
    assert any(len(v) > 1 for v in by_id.values())


def test_drift_speed_audit():
    items = [DriftSegment(0, 1, {"a": [(0, 1), (1, q(3, 2))],
                                 "b": q(3, 2), "c": 2})]
    ok_report = drift_speed_audit(items, 1)  # |slope| = 1/2 < 1
    assert ok_report.ok
    bad_report = drift_speed_audit(items, q(1, 2))
    assert not bad_report.ok
    flagged = bad_report.flags()
    assert flagged and flagged[0].subject == "a"
    with pytest.raises(ValidationError):
        drift_speed_audit(items, -1)


def test_entry_feasibility_audit():
    # the bottom edge rises and the top edge falls at slope 1: at rate 1
    # nothing outside the window can catch either, at rate 2 both can be
    seg = DriftSegment(0, 1, {"a": 8}, window_a=[(0, 0), (1, 1)],
                       window_b=[(0, 20), (1, 19)])
    for ev, message in (
            (EntryBelow(1, "w", 0), "bottom edge rises at 1, at least the "
             "rate 1: nothing below the window can catch it"),
            (EntryAbove(1, "v", 1), "top edge falls at 1, at least the "
             "rate 1: nothing above the window can catch it")):
        for rate, detail in ((1, message), (2, "")):
            entries = [e for e in drift_speed_audit([seg, ev], rate).entries
                       if e.kind == "entry-feasible"]
            assert [(e.subject, e.span, e.ok, e.detail) for e in entries] == [
                (ev.gid, 1, not detail, detail)]


def test_random_timelines_all_pass():
    for seed in range(40):
        rng = random.Random(seed)
        field = rng.choice([F2, FP(5), QQ])
        initial, items = random_timeline(rng, field)
        trace = simulate(initial, items)
        report = check_transitions(trace)
        assert report.ok, (seed, field.tag, report.failures())
