"""One-parameter families: simulation, transition rules, audits."""

import copy
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from chordbars import (F2, FP, INF, QQ, Birth, Death, DriftSegment,
                       EntryAbove, EntryBelow, ExitAbove, ExitBelow,
                       FilteredComplex, HandleSlide, PLPath,
                       canonical_form, check_transitions, drift_speed_audit, random_timeline,
                       schemas, simulate, timelines, vineyard_rows)
from chordbars.cli import main
from chordbars.errors import (ActionIncrease, ActionOutsideWindow,
                              ChordbarsError, EventPreconditionViolated,
                              NonGenericCrossing, SimultaneousBifurcations,
                              ValidationError)
from chordbars.piecewise import merge_times
from chordbars.timelines import SingularEvent

from support import (bottleneck_distance, count_calls, edge_free_family,
                     move_budgets, pairwise_crossings)

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


def test_death_without_its_bar_is_not_admissible():
    # the pre-event sample's pairing tampered so that the collided bar is
    # missing: no transform of it is admissible
    cx = _pair_complex()
    trace = simulate(cx, [
        DriftSegment(0, 1, {"a": [(0, 1), (1, q(5, 4))],
                            "b": [(0, q(3, 2)), (1, q(5, 4))], "c": 2}),
        Death(1, "b", "a"),
        DriftSegment(1, 2, {"c": 2})])
    assert [repr(e) for e in check_transitions(trace).entries] == [
        "CheckEntry(death @ t=1: ok — the collided bar removed)"]
    pre = trace.samples[1]
    assert pre.t == T
    pre.pairs = pre.pairs - {("a", "b")}
    assert [repr(e) for e in check_transitions(trace).failures()] == [
        "CheckEntry(death @ t=1: FAIL — post-event pairing is not an "
        "admissible transform (expected one of: ))"]


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


def _pairs(*pairs):
    return frozenset(pairs)


_FRESH_BELOW = "a fresh infinite bar starts at the bottom"
_FRESH_ABOVE = "a fresh infinite bar starts at the top"
_INF_GONE = "the exiting infinite bar removed"
# event, pairing kind, pre-event pairing, the admissible transforms in order;
# "without" lacks the bar the event acts on (for an entry: any infinite
# bar), "tampered" is no pairing replay can give
_ADMISSIBLE = [
    (Death(1, "x", "y"), "genuine", _pairs(("y", "x"), ("s", None)),
     [(_pairs(("s", None)), "the collided bar removed")]),
    (Death(1, "x", "y"), "without", _pairs(("s", None)), []),
    (Death(1, "x", "y"), "tampered", _pairs(("x", "y"), ("s", None)), []),
    (ExitBelow(1, "g"), "genuine", _pairs(("g", "x"), ("s", None)),
     [(_pairs(("x", None), ("s", None)),
       "finite bar from the bottom replaced by an infinite one")]),
    (ExitBelow(1, "g"), "genuine", _pairs(("g", None), ("s", "x")),
     [(_pairs(("s", "x")), _INF_GONE)]),
    (ExitBelow(1, "g"), "without", _pairs(("s", "x")), []),
    (ExitBelow(1, "g"), "tampered", _pairs(("x", "g"), ("s", None)), []),
    (ExitAbove(1, "g"), "genuine", _pairs(("x", "g"), ("s", None)),
     [(_pairs(("x", None), ("s", None)),
       "bar ending at the top becomes infinite")]),
    (ExitAbove(1, "g"), "genuine", _pairs(("g", None), ("s", "x")),
     [(_pairs(("s", "x")), _INF_GONE)]),
    (ExitAbove(1, "g"), "without", _pairs(("s", "x")), []),
    (ExitAbove(1, "g"), "tampered", _pairs(("g", "x"), ("s", None)), []),
    (EntryBelow(1, "g", 0), "genuine",
     _pairs(("t", None), ("s", None), ("u", "v")),
     [(_pairs(("g", None), ("t", None), ("s", None), ("u", "v")),
       _FRESH_BELOW),
      (_pairs(("g", "s"), ("t", None), ("u", "v")),
       "an infinite bar now starts at the bottom (killed by 's')"),
      (_pairs(("s", None), ("g", "t"), ("u", "v")),
       "an infinite bar now starts at the bottom (killed by 't')")]),
    (EntryBelow(1, "g", 0), "without", _pairs(("u", "v")),
     [(_pairs(("g", None), ("u", "v")), _FRESH_BELOW)]),
    (EntryBelow(1, "g", 0), "tampered", _pairs(("g", None)),
     [(_pairs(("g", None)), _FRESH_BELOW),
      (_pairs(("g", "g")),
       "an infinite bar now starts at the bottom (killed by 'g')")]),
    (EntryAbove(1, "g", 1), "genuine",
     _pairs(("t", None), ("s", None), ("u", "v")),
     [(_pairs(("g", None), ("t", None), ("s", None), ("u", "v")),
       _FRESH_ABOVE),
      (_pairs(("s", "g"), ("t", None), ("u", "v")),
       "an infinite bar is now cut off at the top"),
      (_pairs(("s", None), ("t", "g"), ("u", "v")),
       "an infinite bar is now cut off at the top")]),
    (EntryAbove(1, "g", 1), "without", _pairs(("u", "v")),
     [(_pairs(("g", None), ("u", "v")), _FRESH_ABOVE)]),
    (EntryAbove(1, "g", 1), "tampered", _pairs(("g", None)),
     [(_pairs(("g", None)), _FRESH_ABOVE),
      (_pairs(("g", "g")), "an infinite bar is now cut off at the top")]),
]


@pytest.mark.parametrize("event, kind, pairs, expected", _ADMISSIBLE,
                         ids=["%s-%s" % (row[0].kind, row[1])
                              for row in _ADMISSIBLE])
def test_admissible_transforms_of_deaths_exits_and_entries(event, kind, pairs,
                                                           expected):
    # an exit or entry changes the bar its generator starts (bottom) or
    # ends (top); a pairing without that bar, or with the generator on the
    # wrong end of it, admits nothing
    assert event.admissible(pairs) == expected


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
    # a new id is a nonempty string, as a Generator's: replay sorts ids
    for bad in (5, None, ""):
        for make in (lambda: EntryBelow(0, bad, 0),
                     lambda: EntryAbove(0, bad, 0),
                     lambda: Birth(0, (bad, 1), ("y", 0), 1),
                     lambda: Birth(0, ("x", 1), (bad, 0), 1)):
            with pytest.raises(ValidationError, match="generator id must be "
                               "a nonempty string, got %r" % (bad,)):
                make()


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
    # the sample just after the slide
    sample = next(s for s in trace.samples if s.t > trace.events[0].time)
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
        assert [(e.kind, e.at) for e in failures] == [("crossing", t)]
        sample.pairs = kept


_NO_CROSSING = "pairing changed without a crossing"
_JUMP = "bar endpoint values jump across the crossing"
_NOT_ADMISSIBLE = ("post-event pairing is not an admissible transform "
                   "(expected one of: pairing unchanged)")
# tampered sample -> its failing entries (kind, time, detail): entries along
# the segments come first, then those across event-free boundaries, then
# the events
_TAMPERED = [
    # an interior continuity entry is reported at the later sample's time
    (1, [("continuity", q(3, 4), _NO_CROSSING)]),
    # an event-free boundary's at the boundary time
    (2, [("continuity", q(3, 4), _NO_CROSSING),
         ("continuity", 1, _NO_CROSSING)]),
    (3, [("crossing", q(5, 3), _JUMP), ("continuity", 1, _NO_CROSSING)]),
    (4, [("crossing", q(5, 3), _JUMP), ("handle_slide", 2, _NOT_ADMISSIBLE)]),
    (5, [("handle_slide", 2, _NOT_ADMISSIBLE)]),
]


def test_check_failures_name_their_position():
    # critical times: 0, 1/2 (a's knot), 1 (event-free boundary), 5/3 (c
    # crosses b), 2 (slide), 3; samples at 0, 1/4, 3/4, 4/3, 11/6, 5/2, 3
    cx = _pair_complex()
    trace = simulate(cx, [
        DriftSegment(0, 1, {"a": [(0, 1), (q(1, 2), q(9, 8)), (1, 1)],
                            "b": q(3, 2), "c": 2}),
        DriftSegment(1, 2, {"a": 1, "b": q(3, 2), "c": [(1, 2), (2, q(5, 4))]}),
        HandleSlide(2, "b", {"c": 1}),
        DriftSegment(2, 3, {"a": 1, "b": q(3, 2), "c": q(5, 4)}),
    ])
    assert [s.t for s in trace.samples] == [
        0, q(1, 4), q(3, 4), q(4, 3), q(11, 6), q(5, 2), 3]
    assert [(e.kind, e.at) for e in check_transitions(trace).entries] == [
        ("continuity", q(3, 4)), ("crossing", q(5, 3)), ("continuity", 1),
        ("handle_slide", 2)]
    wrong = frozenset({("a", None), ("b", None), ("c", None)})
    for i, expected in _TAMPERED:
        sample = trace.samples[i]
        sample.pairs, kept = wrong, sample.pairs
        failures = check_transitions(trace).failures()
        assert [(e.kind, e.at, e.detail) for e in failures] == expected, i
        sample.pairs = kept
    assert check_transitions(trace).ok


_ENTRY_DETAIL = """
from chordbars import (F2, INF, DriftSegment, EntryBelow, FilteredComplex,
                       check_transitions, simulate)
hold = {g: k + 1 for k, g in enumerate("edcba")}
cx = FilteredComplex(F2, (0, INF), [(g, v, 0) for g, v in hold.items()], {})
trace = simulate(cx, [DriftSegment(0, 1, hold), EntryBelow(1, "w", 0),
                      DriftSegment(1, 2, {**hold, "w": [(1, 0), (2, "1/2")]})])
next(s for s in trace.samples if "w" in s.actions).pairs = frozenset()
for e in check_transitions(trace).failures():
    print(e.kind, e.detail)
"""


def test_failure_details_do_not_depend_on_the_hash_seed():
    # an entry's candidates name the infinite bars in id order, whatever
    # order the pairing's frozenset iterates in this process
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(timelines.__file__).parents[1]),
                    env.get("PYTHONPATH")) if p)
    outputs = set()
    for seed in ("0", "1", "2", "3", "4", "5"):
        run = subprocess.run([sys.executable, "-c", _ENTRY_DETAIL],
                             env={**env, "PYTHONHASHSEED": seed},
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        outputs.add(run.stdout)
    killed = "; ".join("an infinite bar now starts at the bottom (killed by "
                       "%r)" % g for g in "abcde")
    assert outputs == {
        "entry_below post-event pairing is not an admissible transform "
        "(expected one of: a fresh infinite bar starts at the bottom; %s)\n"
        % killed}


def test_tied_actions_pair_in_id_order():
    # x and y share action 1 at t = 0; the sample order is (action, id),
    # so y comes last and its lowest entry makes g kill y, not x
    cx = FilteredComplex(F2, (0, INF), [("x", 1, 0), ("y", 1, 0), ("g", 2, 1)],
                         {"g": {"x": 1, "y": 1}})
    trace = simulate(cx, [
        DriftSegment(0, 1, {"x": 1, "y": [(0, 1), (1, q(1, 2))], "g": 2}),
    ])
    assert trace.samples[0].t == 0
    assert trace.samples[0].pairs == {("x", None), ("y", "g")}
    assert trace.samples[-1].pairs == {("x", "g"), ("y", None)}


def _canonical_pairs(cx):
    F = canonical_form(cx)
    return frozenset([(killed, killer) for killer, killed in F.pairs]
                     + [(gid, None) for gid in F.unpaired])


def test_sample_pairs_match_canonical_form():
    for seed in range(20):
        rng = random.Random(seed)
        field = rng.choice([F2, FP(5), QQ])
        trace = simulate(*random_timeline(rng, field))
        for k, sample in enumerate(trace.samples):
            assert sample.pairs == _canonical_pairs(sample.complex), (seed, k)


def test_cross_degree_crossing_keeps_the_pairing(monkeypatch):
    # z (degree 0) drifts past g (degree 1) at t = 1/2: the (degree,
    # action, id) order stands, so the samples after the segment's first
    # keep its pairing object, and the crossing check builds no actions
    reductions = count_calls(monkeypatch, timelines, "_reduce")
    built = count_calls(monkeypatch, timelines.SegmentTrace,
                         "critical_actions")
    cx = FilteredComplex(F2, (0, INF), [("x", 1, 0), ("z", 2, 0), ("g", 3, 1)],
                         {"g": {"x": 1}})
    trace = simulate(cx, [
        DriftSegment(0, 1, {"x": 1, "z": [(0, 2), (1, 4)], "g": 3}),
    ])
    assert trace.segments[0].crossings == [q(1, 2)]
    s0, s1, s2, s3 = trace.samples
    assert [s.t for s in trace.samples] == [0, q(1, 4), q(3, 4), 1]
    # one reduction for the family's first sample, one for the segment's
    assert len(reductions) == 2
    assert s2.pairs is s1.pairs and s3.pairs is s1.pairs
    assert s1.pairs == {("x", "g"), ("z", None)} == _canonical_pairs(s2.complex)
    assert [repr(e) for e in check_transitions(trace).entries] == [
        "CheckEntry(crossing @ t=1/2: ok)"]
    assert built == []


def test_same_degree_crossing_recomputes_the_pairing(monkeypatch):
    # the killers g1 and g2 cross at t = 1/2 and the pairing switches: the
    # sample after the crossing is reduced afresh and the crossing check
    # reads the actions there once
    reductions = count_calls(monkeypatch, timelines, "_reduce")
    built = count_calls(monkeypatch, timelines.SegmentTrace,
                         "critical_actions")
    cx = FilteredComplex(F2, (0, INF),
                         [("x", 0, 0), ("y", 1, 0), ("g1", 2, 1), ("g2", 3, 1)],
                         {"g1": {"x": 1, "y": 1}, "g2": {"y": 1}})
    trace = simulate(cx, [
        DriftSegment(0, 1, {"x": 0, "y": 1, "g1": [(0, 2), (1, 4)], "g2": 3}),
    ])
    s0, s1, s2, s3 = trace.samples
    assert s1.pairs == {("y", "g1"), ("x", "g2")}
    assert s2.pairs == {("y", "g2"), ("x", "g1")}
    assert s3.pairs is s2.pairs
    assert len(reductions) == 3
    for s in trace.samples:
        assert s.pairs == _canonical_pairs(s.complex)
    assert [repr(e) for e in check_transitions(trace).entries] == [
        "CheckEntry(crossing @ t=1/2: ok)"]
    assert [(k, sorted(gids)) for _st, k, gids in built] == [
        (1, ["g1", "g2", "x", "y"])]


def test_crossing_check_reads_only_the_pairs_that_change(monkeypatch):
    # as above, with a bystander z whose bar [5, inf) is in both pairings:
    # the crossing check reads the actions of the four generators whose
    # pairs change, not z's
    built = count_calls(monkeypatch, timelines.SegmentTrace,
                         "critical_actions")
    cx = FilteredComplex(F2, (0, INF),
                         [("x", 0, 0), ("y", 1, 0), ("g1", 2, 1), ("g2", 3, 1),
                          ("z", 5, 0)],
                         {"g1": {"x": 1, "y": 1}, "g2": {"y": 1}})
    trace = simulate(cx, [DriftSegment(0, 1, {
        "x": 0, "y": 1, "g1": [(0, 2), (1, 4)], "g2": 3, "z": 5})])
    assert ("z", None) in trace.samples[1].pairs & trace.samples[2].pairs
    assert [repr(e) for e in check_transitions(trace).entries] == [
        "CheckEntry(crossing @ t=1/2: ok)"]
    st = trace.segments[0]
    assert [(s, k, sorted(gids)) for s, k, gids in built] == [
        (st, 1, ["g1", "g2", "x", "y"])]


def test_a_new_frame_is_reduced_afresh():
    # same actions, same order, another differential: the pairing is not
    # carried over from the previous sample
    trace = timelines.FamilyTrace()
    actions, window = {"x": q(1), "g": q(2)}, (q(0), INF)
    degrees = {"x": 0, "g": 1}
    keys = [(0, 1, "x"), (1, 2, "g")]
    trace.add_sample(q(0), actions, window, (F2, degrees, {"g": {"x": 1}}),
                     keys)
    trace.add_sample(q(1), actions, window, (F2, degrees, {}), keys)
    assert [s.pairs for s in trace.samples] == [
        {("x", "g")}, {("x", None), ("g", None)}]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([F2, FP(5), QQ]))
def test_kept_pairings_match_canonical_form(seed, field):
    trace = simulate(*random_timeline(random.Random(seed), field,
                                      max_generators=20))
    for k, sample in enumerate(trace.samples):
        assert sample.pairs == _canonical_pairs(sample.complex), k


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
    flagged = bad_report.failures()
    assert flagged and flagged[0].subject == "a"
    with pytest.raises(ValidationError):
        drift_speed_audit(items, -1)
    # a float rate is refused where its path is built, a given one or the
    # constant the audit builds
    with pytest.raises(ValidationError, match="must be exact rationals"):
        PLPath([(0, 2), (0.1, 2), (1, 2)])
    with pytest.raises(ValidationError, match="must be exact rationals"):
        drift_speed_audit(items, 1.5)
    with pytest.raises(ValidationError,
                       match="^oscillation rate path does not cover the timeline$"):
        drift_speed_audit(items, PLPath([(0, 2), (q(1, 2), 2)]))


def test_drift_speed_audit_without_segments_is_empty():
    for items in ([], [EntryBelow(0, "g", 0)]):
        report = drift_speed_audit(items, 1)
        assert report.ok and report.entries == []


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
            assert [(e.subject, e.at, e.ok, e.detail) for e in entries] == [
                (ev.gid, 1, not detail, detail)]


T = q(1, 2)
_PAIR = _pair_complex()
_PAIR4 = _pair_complex(window=(0, 4))
_REFUSALS = [
    (_PAIR, HandleSlide(T, "c", {"b": 1}, unit=0), EventPreconditionViolated,
     "slide unit must be nonzero"),
    (_PAIR, HandleSlide(T, "c", {"c": 1}), EventPreconditionViolated,
     "slide addend may not contain the target"),
    (_PAIR, HandleSlide(T, "z", {"b": 1}), EventPreconditionViolated,
     "slide target 'z' not present"),
    (_PAIR, HandleSlide(T, "c", {"z": 1}), EventPreconditionViolated,
     "slide addend id 'z' not present"),
    (_PAIR, HandleSlide(T, "c", {"a": 1}), EventPreconditionViolated,
     "slide addend 'a' has degree 0, target has 1"),
    (_PAIR, Birth(T, ("a", 1), ("v", 0), 3), EventPreconditionViolated,
     "birth id 'a' already in use"),
    (_PAIR, Birth(T, ("u", 1), ("u", 0), 3), EventPreconditionViolated,
     "birth pair needs two distinct ids"),
    (_PAIR, Birth(T, ("u", 2), ("v", 0), 3), EventPreconditionViolated,
     "birth pair degrees must differ by one (x one above y)"),
    (_PAIR4, Birth(T, ("u", 1), ("v", 0), 5), EventPreconditionViolated,
     "birth action 5 outside window [0, 4) at t = 1/2"),
    (_PAIR, Death(T, "b", "z"), EventPreconditionViolated,
     "death pair ('b', 'z') not present"),
    (_PAIR, Death(T, "c", "a"), EventPreconditionViolated,
     "death requires ∂c = unit·a exactly, got targets []"),
    (FilteredComplex(F2, (0, INF), [("x", 1, 0), ("y", 2, 1), ("z", 3, 1)],
                     {"y": {"x": 1}, "z": {"x": 1}}),
     Death(T, "y", "x"), EventPreconditionViolated,
     "death pair is not split: 'x' appears in the boundary of 'z'"),
    (_PAIR, Death(T, "b", "a"), EventPreconditionViolated,
     "death pair actions differ at t = 1/2: 3/2 vs 1"),
    (_PAIR, ExitBelow(T, "z"), EventPreconditionViolated,
     "exiting generator 'z' not present"),
    (_PAIR, ExitBelow(T, "a"), EventPreconditionViolated,
     "exit below requires action(a) = window bottom 0 at t = 1/2, got 1"),
    (_PAIR, ExitAbove(T, "c"), EventPreconditionViolated,
     "exit above needs a finite window top"),
    (_PAIR4, ExitAbove(T, "z"), EventPreconditionViolated,
     "exiting generator 'z' not present"),
    (_PAIR4, ExitAbove(T, "c"), EventPreconditionViolated,
     "exit above requires action(c) = window top 4 at t = 1/2, got 2"),
    (_PAIR, EntryBelow(T, "a", 0), EventPreconditionViolated,
     "entering id 'a' already in use"),
    (_PAIR, EntryBelow(T, "g", 0, couplings={"z": 1}),
     EventPreconditionViolated, "coupling id 'z' not present"),
    (_PAIR, EntryBelow(T, "g", 0, couplings={"a": 1}),
     EventPreconditionViolated,
     "coupling 'a' must be one degree above the newcomer"),
    (FilteredComplex(F2, (0, INF), [("z", 2, 1), ("w", 3, 2)],
                     {"w": {"z": 1}}),
     EntryBelow(T, "g", 0, couplings={"z": 1}), EventPreconditionViolated,
     "couplings break ∂² = 0 (witness 'w')"),
    # both rows two degrees up break ∂²: the first in differential order
    # (by action) is the witness
    (FilteredComplex(F2, (0, INF), [("z", 2, 1), ("w2", 3, 2), ("w1", 4, 2)],
                     {"w1": {"z": 1}, "w2": {"z": 1}}),
     EntryBelow(T, "g", 0, couplings={"z": 1}), EventPreconditionViolated,
     "couplings break ∂² = 0 (witness 'w2')"),
    # over F2 the couplings cancel on w's row, not on u's
    (FilteredComplex(F2, (0, INF), [("y", 2, 1), ("z", q(5, 2), 1),
                                    ("w", 3, 2), ("u", 4, 2)],
                     {"w": {"y": 1, "z": 1}, "u": {"z": 1}}),
     EntryBelow(T, "g", 0, couplings={"y": 1, "z": 1}),
     EventPreconditionViolated, "couplings break ∂² = 0 (witness 'u')"),
    (FilteredComplex(F2, (0, INF), [("x", 0, 0)], {}),
     EntryBelow(T, "g", 0), NonGenericCrossing,
     "entry at the bottom collides with a generator at action 0"),
    (_PAIR, EntryAbove(T, "v", 1), EventPreconditionViolated,
     "entry above needs a finite window top"),
    (_PAIR4, EntryAbove(T, "b", 1), EventPreconditionViolated,
     "entering id 'b' already in use"),
    (_PAIR4, EntryAbove(T, "v", 1, boundary={"z": 1}),
     EventPreconditionViolated, "boundary id 'z' not present"),
    (_PAIR4, EntryAbove(T, "v", 2, boundary={"a": 1}),
     EventPreconditionViolated,
     "boundary of the newcomer must live one degree down"),
    (_PAIR4, EntryAbove(T, "v", 2, boundary={"b": 1}),
     EventPreconditionViolated, "entry boundary is not a cycle (witness 'a')"),
]


def test_event_refusals_name_what_they_refuse():
    # each event refuses a state its rule does not fit, at the event and
    # before any later item; the message names the ids and time at fault
    for cx, event, error, message in _REFUSALS:
        hold = DriftSegment(0, T, {g.id: g.action for g in cx.generators})
        with pytest.raises(error) as info:
            simulate(cx, [hold, event, DriftSegment(T, 1, {})])
        assert type(info.value) is error and str(info.value) == message, \
            (event.kind, str(info.value))


def _rise_to_top(s_end):
    # window (0, 10); g (degree 0) rises from 5 to the top, and s, with
    # ∂s = g, rises from 6 to s_end, then g exits above
    cx = FilteredComplex(F2, (0, 10), [("g", 5, 0), ("s", 6, 1)],
                         {"s": {"g": 1}})
    return cx, [DriftSegment(0, 1, {"g": [(0, 5), (1, 10)],
                                    "s": [(0, 6), (1, s_end)]}),
                ExitAbove(1, "g"), DriftSegment(1, 2, {"s": s_end})]


def test_degeneracies_left_for_the_next_event_are_refused():
    # a generator hit by a boundary cannot reach the top without its
    # source meeting it there or passing it first, so one of the first two
    # refusals comes before exit_above could find it in a boundary; and a
    # generator left on the top is refused by any other event and by the
    # end of the timeline
    top = _pair_complex(window=(0, 4))
    for (cx, items), error, message in [
            (_rise_to_top(10), ActionIncrease,
             "differential edge 's' -> 'g' loses strict action decrease at "
             "t = 1 and the exit_above event does not resolve it"),
            (_rise_to_top(11), ActionOutsideWindow,
             "generator 's' reaches the window top at t = 4/5"),
            ((top, [DriftSegment(0, T, {"a": 1, "b": q(3, 2),
                                        "c": [(0, 2), (T, 4)]}),
                    HandleSlide(T, "c", {"b": 1})]), ActionOutsideWindow,
             "generator 'c' reaches the window top at t = 1/2 and the "
             "handle_slide event does not resolve it"),
            ((top, [DriftSegment(0, 1, {"a": 1, "b": q(3, 2),
                                        "c": [(0, 2), (1, 4)]})]),
             ActionOutsideWindow,
             "generator 'c' sits on the window top at the end of the timeline"),
            # with no event between two segments, the second refuses at its
            # start what the first left at a zero gap or on the top
            ((FilteredComplex(F2, (0, INF), [("a", 1, 0), ("c", 2, 1)],
                              {"c": {"a": 1}}),
              [DriftSegment(0, 1, {"a": 1, "c": [(0, 2), (1, 1)]}),
               DriftSegment(1, 2, {"a": 1, "c": [(1, 1), (2, 2)]})]),
             ActionIncrease,
             "differential edge 'c' -> 'a' loses strict action decrease at "
             "t = 1"),
            ((top, [DriftSegment(0, 1, {"a": 1, "b": q(3, 2),
                                        "c": [(0, 2), (1, 4)]}),
                    DriftSegment(1, 2, {"a": 1, "b": q(3, 2), "c": 4})]),
             ActionOutsideWindow,
             "generator 'c' reaches the window top at t = 1"),
            # an event resolves only the degeneracy it names
            ((FilteredComplex(F2, (0, INF), [("y", 1, 0), ("x", 2, 1),
                                             ("v", 3, 0), ("u", 4, 1)],
                              {"x": {"y": 1}, "u": {"v": 1}}),
              [DriftSegment(0, 1, {"y": 1, "x": [(0, 2), (1, 1)],
                                   "v": 3, "u": [(0, 4), (1, 3)]}),
               Death(1, "x", "y")]), ActionIncrease,
             "differential edge 'u' -> 'v' loses strict action decrease at "
             "t = 1 and the death event does not resolve it"),
            ((FilteredComplex(F2, (0, 4), [("g", 2, 0), ("h", 3, 0)], {}),
              [DriftSegment(0, 1, {"g": [(0, 2), (1, 4)],
                                   "h": [(0, 3), (1, 4)]}),
               ExitAbove(1, "g")]), ActionOutsideWindow,
             "generator 'h' reaches the window top at t = 1 and the "
             "exit_above event does not resolve it")]:
        with pytest.raises(error) as info:
            simulate(cx, items)
        assert type(info.value) is error and str(info.value) == message


# window (0, 4): x kills y and v kills w; g, a cycle, sits highest
_DEGENERATE = FilteredComplex(F2, (0, 4), [
    ("y", 1, 0), ("x", 2, 1), ("w", 3, 0), ("v", q(7, 2), 1),
    ("g", q(15, 4), 0)], {"x": {"y": 1}, "v": {"w": 1}})
_HOLD = {"y": 1, "x": 2, "w": 3, "v": q(7, 2), "g": q(15, 4)}


def _one_event_of_each_kind():
    # each passes the checks its kind makes before the degeneracy check
    return [HandleSlide(1, "x", {}), Birth(1, ("p", 1), ("n", 0), q(1, 2)),
            Death(1, "v", "w"), ExitBelow(1, "w"), ExitAbove(1, "w"),
            EntryBelow(1, "n", 0), EntryAbove(1, "n", 1)]


# g falls onto x; each event's own generators sit where its rule says
_TIES = [(HandleSlide(1, "x", {}), {}),
         (Birth(1, ("p", 1), ("n", 0), q(1, 2)), {}),
         (Death(1, "v", "w"), {"v": [(0, q(7, 2)), (1, 3)]}),
         (ExitBelow(1, "w"), {"w": [(0, 3), (1, 0)]}),
         (ExitAbove(1, "v"), {"v": [(0, q(7, 2)), (1, 4)]}),
         (EntryBelow(1, "n", 0), {}), (EntryAbove(1, "n", 1), {})]


def test_one_event_of_each_kind_covers_the_kinds():
    assert sorted(ev.kind for ev in _one_event_of_each_kind()) \
        == sorted(ev.kind for ev, _ in _TIES) == sorted(schemas._EVENT_ITEMS)


@pytest.mark.parametrize("event", _one_event_of_each_kind(),
                         ids=lambda ev: ev.kind)
def test_every_event_refuses_a_zero_gap_it_does_not_resolve(event):
    # x falls onto y, which it kills: no event but death of (x, y) resolves
    # that, so death of (v, w) is refused like every other kind
    items = [DriftSegment(0, 1, {**_HOLD, "x": [(0, 2), (1, 1)]}), event,
             DriftSegment(1, 2, {})]
    with pytest.raises(ActionIncrease) as info:
        simulate(_DEGENERATE, items)
    assert type(info.value) is ActionIncrease and str(info.value) == (
        "differential edge 'x' -> 'y' loses strict action decrease at t = 1 "
        "and the %s event does not resolve it" % event.kind)


@pytest.mark.parametrize("event", _one_event_of_each_kind(),
                         ids=lambda ev: ev.kind)
def test_every_event_refuses_a_top_touch_it_does_not_resolve(event):
    # g rises onto the finite top: only its own exit above resolves that
    items = [DriftSegment(0, 1, {**_HOLD, "g": [(0, q(15, 4)), (1, 4)]}),
             event, DriftSegment(1, 2, {})]
    with pytest.raises(ActionOutsideWindow) as info:
        simulate(_DEGENERATE, items)
    assert type(info.value) is ActionOutsideWindow and str(info.value) == (
        "generator 'g' reaches the window top at t = 1 and the %s event "
        "does not resolve it" % event.kind)


def _refused_tie(event, paths):
    items = [DriftSegment(0, 1, {**_HOLD, "g": [(0, q(15, 4)), (1, 2)],
                                 **paths}), event, DriftSegment(1, 2, {})]
    with pytest.raises(NonGenericCrossing) as info:
        simulate(_DEGENERATE, items)
    assert type(info.value) is NonGenericCrossing and str(info.value) == (
        "generators 'g' and 'x' share action 2 exactly at the singular "
        "time t = 1")


@pytest.mark.parametrize("event, paths", _TIES,
                         ids=[ev.kind for ev, _ in _TIES])
def test_every_event_refuses_a_tie_it_does_not_resolve(event, paths):
    # a death's own pair may tie (v falls onto w), no other two generators
    _refused_tie(event, paths)


@pytest.mark.parametrize("event", [Death(1, "v", "w"), ExitBelow(1, "w"),
                                   ExitAbove(1, "v")],
                         ids=lambda ev: ev.kind)
def test_a_tie_is_refused_before_the_events_own_checks(event):
    # the pair's actions (7/2 and 3) differ, and the leaver is off its
    # edge, but the tie elsewhere is the genericity fault reported first
    _refused_tie(event, {})


def test_two_ties_name_the_first_pair_in_id_order():
    # a = c = 2 and b = d = 1 at the slide: ids are walked in order
    cx = FilteredComplex(F2, (0, INF), [("a", 2, 0), ("b", 1, 0),
                                        ("c", 3, 0), ("d", 4, 0)], {})
    items = [DriftSegment(0, 1, {"a": 2, "b": 1, "c": [(0, 3), (1, 2)],
                                 "d": [(0, 4), (1, 1)]}),
             HandleSlide(1, "a", {}), DriftSegment(1, 2, {})]
    with pytest.raises(NonGenericCrossing) as info:
        simulate(cx, items)
    assert type(info.value) is NonGenericCrossing and str(info.value) == (
        "generators 'a' and 'c' share action 2 exactly at the singular "
        "time t = 1")


def test_death_and_exit_above_resolve_only_their_own_degeneracy():
    # a death takes its own pair's zero gap but not another edge's; an exit
    # above takes its own generator off the top but not another one there
    fall = {**_HOLD, "v": [(0, q(7, 2)), (1, 3)]}
    rise = {**_HOLD, "g": [(0, q(15, 4)), (1, 4)]}
    for path, event, gone in [(fall, Death(1, "v", "w"), {"v", "w"}),
                              (rise, ExitAbove(1, "g"), {"g"})]:
        rest = {gid: v for gid, v in _HOLD.items() if gid not in gone}
        trace = simulate(_DEGENERATE, [DriftSegment(0, 1, path), event,
                                       DriftSegment(1, 2, rest)])
        assert check_transitions(trace).ok, event.kind
    for items, error, message in [
            ([DriftSegment(0, 1, {**fall, "x": [(0, 2), (1, 1)]}),
              Death(1, "v", "w")], ActionIncrease,
             "differential edge 'x' -> 'y' loses strict action decrease at "
             "t = 1 and the death event does not resolve it"),
            ([DriftSegment(0, 1, {**fall, "x": [(0, 2), (1, 1)]}),
              Death(1, "x", "y")], ActionIncrease,
             "differential edge 'v' -> 'w' loses strict action decrease at "
             "t = 1 and the death event does not resolve it"),
            ([DriftSegment(0, 1, {**rise, "v": [(0, q(7, 2)), (1, 4)]}),
              ExitAbove(1, "g")], ActionOutsideWindow,
             "generator 'v' reaches the window top at t = 1 and the "
             "exit_above event does not resolve it"),
            ([DriftSegment(0, 1, {**rise, "v": [(0, q(7, 2)), (1, 4)]}),
              ExitAbove(1, "v")], ActionOutsideWindow,
             "generator 'g' reaches the window top at t = 1 and the "
             "exit_above event does not resolve it"),
            # only a leaver through the top may sit on it
            ([DriftSegment(0, 1, rise), ExitBelow(1, "g")],
             ActionOutsideWindow,
             "generator 'g' reaches the window top at t = 1 and the "
             "exit_below event does not resolve it")]:
        with pytest.raises(error) as info:
            simulate(_DEGENERATE, items + [DriftSegment(1, 2, {})])
        assert type(info.value) is error and str(info.value) == message


def _drift(**windows):
    return DriftSegment(0, 1, {"a": 1, "b": q(3, 2), "c": 2}, **windows)


_SIMULATE_REFUSALS = [
    (_PAIR, [HandleSlide(0, "c", {"b": 1})],
     "a timeline must start with a drift segment"),
    (_PAIR, [_hold(0, T), _hold(1, 2)],
     "segment 1 starts at 1 but the family is at 1/2"),
    (_PAIR, [_hold(0, T), HandleSlide(1, "c", {"b": 1})],
     "event 1 at time 1 but the family is at 1/2"),
    (_PAIR, [_hold(0, T), "drift"],
     "timeline item 1 is neither a segment nor an event"),
    (_PAIR, [DriftSegment(0, 1, {"a": 1, "b": q(3, 2)})],
     "segment paths mismatch state (missing ['c'], extra [])"),
    (_PAIR, [DriftSegment(0, 1, {"a": 1, "b": q(3, 2), "c": 2, "z": 3})],
     "segment paths mismatch state (missing [], extra ['z'])"),
    (_PAIR, [DriftSegment(0, 1, {"a": 1, "b": q(3, 2),
                                 "c": [(0, 3), (1, 2)]})],
     "path of 'c' starts at 3 but the generator sits at 2 (t=0)"),
    (_PAIR, [_drift(window_a=1)], "window bottom jumps at t=0"),
    (_PAIR, [_drift(window_b=5)], "window top jumps at t=0"),
    (_PAIR4, [_drift(window_b=5)], "window top jumps at t=0"),
    (_PAIR4, [_drift(window_b=INF)], "window top jumps to infinity at t=0"),
    (schemas.serialize_complex(_PAIR), [], "initial must be a FilteredComplex"),
]


def test_replay_refusals_name_what_they_refuse(tmp_path, capsys):
    # a timeline that does not fit the family it replays is refused before
    # any sample past the misfit; every refusal is a ValidationError
    for cx, items, message in _SIMULATE_REFUSALS:
        with pytest.raises(ValidationError) as info:
            simulate(cx, items)
        assert type(info.value) is ValidationError \
            and str(info.value) == message, message
    # a segment is refused as it is built
    for make, message in [
            (lambda: DriftSegment(1, 1, {}), "drift segment needs t0 < t1"),
            (lambda: DriftSegment(1, 0, {}), "drift segment needs t0 < t1"),
            (lambda: DriftSegment(0, 1, {"a": [(0, 1), (T, 1)]}),
             "action path of 'a' does not span [0, 1]"),
            (lambda: DriftSegment(0, 1, {}, window_a=[(0, 0), (T, 0)]),
             "window path does not span the segment"),
            (lambda: DriftSegment(0, 1, {}, window_b=[(T, 4), (1, 4)]),
             "window path does not span the segment")]:
        with pytest.raises(ValidationError) as info:
            make()
        assert type(info.value) is ValidationError \
            and str(info.value) == message
    # the command line reports a refusal on one line and exits 1
    path = tmp_path / "mismatch.json"
    path.write_text(schemas.dumps(schemas.serialize_timeline(
        *_SIMULATE_REFUSALS[4][:2])))
    capsys.readouterr()
    assert main(["simulate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: segment paths mismatch state "
                          "(missing ['c'], extra [])\n")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_event_protocol_is_apply_and_admissible():
    # a new kind is one SingularEvent subclass plus one schemas item row,
    # and the class owns its rules through exactly two methods
    kinds = {c.kind: c for c in _subclasses(SingularEvent)
             if "kind" in vars(c)}
    assert set(kinds) == set(schemas._EVENT_ITEMS)
    for kind, (cls, _fields) in schemas._EVENT_ITEMS.items():
        assert kinds[kind] is cls
        methods = {name for c in cls.__mro__[:-1]
                   for name, v in vars(c).items()
                   if callable(v) and not name.startswith("_")}
        assert methods == {"apply", "admissible"}, kind
        assert cls.apply is not SingularEvent.apply, kind
        # and carries no data for the next item: kind, plus the window edge
        # an exit or entry crosses, which the speed audit reads
        data = {name for c in cls.__mro__[:-1]
                for name, v in vars(c).items()
                if not callable(v) and not name.startswith("_")}
        assert data == ({"kind", "edge"} if cls.edge is None
                        else {"kind", "edge", "exits"}), kind


def _off_by(state, gid, inward):
    """A copy of ``state`` with ``gid`` moved off its action by less than
    half of any gap between distinct actions and finite window edges."""
    values = sorted(set(state.actions.values())
                    | {v for v in (state.a, state.b) if v != INF})
    gaps = [v - u for u, v in zip(values, values[1:])]
    step = min(gaps, default=2) / 2
    moved = copy.copy(state)
    moved.degrees = dict(state.degrees)
    moved.actions = dict(state.actions)
    moved.diff = {src: dict(row) for src, row in state.diff.items()}
    moved.actions[gid] += step if inward else -step
    return moved


def _checked_apply(cls):
    """``cls.apply`` wrapped in the action rules each event must keep."""
    inner = cls.apply

    def apply(ev, state):
        if isinstance(ev, Death):
            # the pair must sit at one action: a killer moved off is refused
            with pytest.raises(EventPreconditionViolated):
                inner(ev, _off_by(state, ev.x_id, True))
        elif isinstance(ev, (ExitBelow, ExitAbove)):
            with pytest.raises(EventPreconditionViolated):
                inner(ev, _off_by(state, ev.gid, ev.edge == 0))
        before = dict(state.actions)
        inner(ev, state)
        after, edges = state.actions, (state.a, state.b)
        for gid in before.keys() & after.keys():
            assert after[gid] == before[gid], (ev.kind, gid)
        gone = before.keys() - after.keys()
        new = after.keys() - before.keys()
        if isinstance(ev, Birth):
            assert (gone, new) == (set(), {ev.x_id, ev.y_id})
            assert after[ev.x_id] == after[ev.y_id] == ev.common_action
        elif isinstance(ev, Death):
            assert (gone, new) == ({ev.x_id, ev.y_id}, set())
            assert before[ev.x_id] == before[ev.y_id]
        elif isinstance(ev, (ExitBelow, ExitAbove)):
            assert (gone, new) == ({ev.gid}, set())
            assert before[ev.gid] == edges[ev.edge]
        elif isinstance(ev, (EntryBelow, EntryAbove)):
            assert (gone, new) == (set(), {ev.gid})
            assert after[ev.gid] == edges[ev.edge]
        else:
            assert (gone, new) == (set(), set())
        # the only degeneracy an event leaves is the one it creates, so the
        # next segment may start at a zero gap only there
        assert timelines._degeneracies(state) == (
            ([(ev.x_id, ev.y_id)], []) if isinstance(ev, Birth)
            else ([], [ev.gid]) if isinstance(ev, EntryAbove)
            else ([], [])), ev.kind

    return apply


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([F2, FP(5), QQ]))
def test_event_apply_keeps_the_action_rules(seed, field):
    # what check_transitions does not re-check at an event, apply enforces:
    # shared generators keep their actions, newcomers sit where the rule
    # puts them, leavers were on the edge or at one action; and the
    # reduction always finds the bar the event acts on
    with pytest.MonkeyPatch.context() as mp:
        for cls in schemas._EVENT_ITEMS.values():
            mp.setattr(cls[0], "apply", _checked_apply(cls[0]))
        trace = simulate(*random_timeline(random.Random(seed), field))
    for ev in trace.events:
        pre = [s for s in trace.samples if s.t < ev.time][-1]
        assert ev.admissible(pre.pairs)
    assert check_transitions(trace).ok


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([F2, FP(5), QQ]))
def test_samples_of_one_segment_obey_stability(seed, field):
    # inside a segment the complex is fixed and only the actions move, so
    # two samples' barcodes lie within the largest move of one generator
    # between them in bottleneck distance (the stability theorem)
    trace = simulate(*random_timeline(random.Random(seed), field))
    for seg in trace.segments:
        samples = [trace.samples[i] for i in seg.sample_indices]
        for s1, s2 in combinations(samples, 2):
            assert s1.frame is s2.frame
            move = max([abs(v - s2.actions[g]) for g, v in s1.actions.items()],
                       default=0)
            assert bottleneck_distance(s1.barcode, s2.barcode) <= move, \
                (seed, field.tag, s1.t, s2.t)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([F2, FP(5), QQ]))
def test_families_without_edge_events_obey_stability(seed, field):
    # from a family's first sample to its last the bottleneck distance is
    # at most the move budget; the family is a random one up to its first
    # exit or entry
    initial, items = random_timeline(random.Random(seed), field)
    items = edge_free_family(items)
    if items is None:
        return
    trace = simulate(initial, items)
    first, last = trace.samples[0], trace.samples[-1]
    assert bottleneck_distance(first.barcode, last.barcode) \
        <= move_budgets(trace)[-1], (seed, field.tag)


def _copy_knots(seg, source, target, fractions):
    """``target``'s path on ``seg`` made to pass through ``source``'s values
    at the given fractions of the segment, its ends kept."""
    t0, t1 = seg.t0, seg.t1
    inner = [t0 + (t1 - t0) * f for f in fractions]
    path = seg.actions[target]
    seg.actions[target] = PLPath(
        [(t0, path.start_value)]
        + list(zip(inner, seg.actions[source].values_at(inner)))
        + [(t1, path.end_value)])


def _degenerate(rng, trace, items, kind):
    """Make one drift segment of a random family degenerate in place:
    interior knots copied onto generators with no differential edge, so
    only crossings change (no gap, window or event check sees them).
    ``shared`` and ``cross`` (across degrees) tie two generators at the
    midpoint; ``copy`` makes two coincide on the middle third, ``three``
    three, and ``two`` two pairs on different thirds.  Returns the
    generators a coincidence names, in the order they were picked."""
    need = {"none": 0, "shared": 1, "cross": 1, "copy": 1, "three": 2,
            "two": 2}[kind]
    segments = [it for it in items if isinstance(it, DriftSegment)]
    j = rng.randrange(len(segments))
    seg, st_ = segments[j], trace.segments[j]
    _field, degrees, diff = trace.samples[st_.sample_indices[0]].frame
    busy = set(diff).union(*diff.values())
    free = sorted(set(degrees) - busy)
    if not need or len(free) < need or len(degrees) < need + 2:
        return []
    targets = rng.sample(free, need)
    g2 = targets[0]
    sources = [g for g in sorted(degrees) if g not in targets]
    g1 = rng.choice([g for g in sources if kind != "cross"
                     or degrees[g] != degrees[g2]] or [None])
    if g1 is None:
        return []
    if kind in ("shared", "cross"):
        _copy_knots(seg, g1, g2, [Fraction(1, 2)])
        return []
    thirds = [Fraction(1, 3), Fraction(2, 3)]
    _copy_knots(seg, g1, g2, thirds)
    if kind == "copy":
        return [g1, g2]
    g3 = targets[1]
    if kind == "three":
        _copy_knots(seg, g1, g3, thirds)
        return [g1, g2, g3]
    g4 = rng.choice([g for g in sources if g != g1])
    _copy_knots(seg, g4, g3, [Fraction(1, 6), Fraction(1, 3)])
    return [g1, g2, g3, g4]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([F2, FP(5), QQ]),
       st.sampled_from(["none", "shared", "cross", "copy", "three", "two"]))
def test_segment_crossings_match_the_pairwise_reference(seed, field, kind):
    # every segment's critical times and crossings are the brute-force
    # pairwise ones, on random families with one segment made degenerate;
    # a coincidence is refused in its first segment, naming the least pair
    # in id order (a three-way one: its first two ids)
    rng = random.Random(seed)
    initial, items = random_timeline(rng, field)
    named = _degenerate(rng, simulate(initial, items), items, kind)
    want, first = [], None
    for seg in (it for it in items if isinstance(it, DriftSegment)):
        first, critical, crossings = pairwise_crossings(
            seg.actions, merge_times([seg.t0, seg.t1], *[
                p.breakpoint_times() for p in seg.actions.values()]))
        if first:
            break
        want.append((critical, crossings))
    try:
        trace = simulate(initial, items)
    except NonGenericCrossing as exc:
        assert first, (seed, field.tag, kind)
        assert str(exc) == ("trajectories of %r and %r coincide on an "
                            "interval" % first)
        if kind == "three":
            assert first == tuple(sorted(named)[:2])
        if kind == "two":
            assert first == min(tuple(sorted(named[:2])),
                                tuple(sorted(named[2:])))
    else:
        assert first is None and not named, (seed, field.tag, kind)
        assert [(st_.critical, st_.crossings)
                for st_ in trace.segments] == want


def test_random_timelines_all_pass():
    for seed in range(40):
        rng = random.Random(seed)
        field = rng.choice([F2, FP(5), QQ])
        initial, items = random_timeline(rng, field)
        trace = simulate(initial, items)
        report = check_transitions(trace)
        assert report.ok, (seed, field.tag, report.failures())


# ---------------------------------------------------------------------------
# segment replay against plain PLPath arithmetic
# ---------------------------------------------------------------------------

def _segment_reference(seg, diff, zero_edges, zero_tops, a, b):
    """What simulating ``seg`` last must give, from public PLPath arithmetic:
    (error class, message), or (None, crossing times).  Every pair
    difference and every gap is built as a path and read on its own pieces;
    the window edges are ``a`` and ``b`` (a path or INF)."""
    t0, t1, paths = seg.t0, seg.t1, seg.actions
    ids = sorted(paths)
    edges = [p for p in (a, b) if p != INF]
    first, _critical, crossings = pairwise_crossings(paths, merge_times(
        *[p.breakpoint_times() for p in [*paths.values(), *edges]]))
    if first:
        return NonGenericCrossing, (
            "trajectories of %r and %r coincide on an interval" % first)

    def first_bad(gap, zero_at_start):
        ok = {t1, t0} if zero_at_start else {t1}
        for ta, va, tb, vb in gap.pieces():
            if va < 0:
                return ta
            if vb < 0:
                return ta + (tb - ta) * va / (va - vb)
            if va == 0 and (vb == 0 or ta not in ok):
                return ta
            if vb == 0 and tb not in ok:
                return tb
        return None

    pending_gaps, pending_tops = [], []
    for src, row in diff.items():
        for tgt in row:
            gap = paths[src] - paths[tgt]
            bad = first_bad(gap, (src, tgt) in zero_edges)
            if bad is not None:
                return ActionIncrease, (
                    "differential edge %r -> %r loses strict action "
                    "decrease at t = %s" % (src, tgt, bad))
            if gap.end_value == 0:
                pending_gaps.append((src, tgt))
    for gid in ids:
        for ta, va, tb, vb in (paths[gid] - a).pieces():
            if va < 0 or vb < 0:
                return ActionOutsideWindow, (
                    "generator %r dips below the window bottom in [%s, %s]"
                    % (gid, ta, tb))
        if b != INF:
            gap = b - paths[gid]
            bad = first_bad(gap, gid in zero_tops)
            if bad is not None:
                return ActionOutsideWindow, (
                    "generator %r reaches the window top at t = %s"
                    % (gid, bad))
            if gap.end_value == 0:
                pending_tops.append(gid)
    # the segment ends the timeline: a zero gap left at its end is rejected
    if pending_gaps:
        return ActionIncrease, (
            "differential edge %r -> %r loses strict action decrease at the "
            "end of the timeline" % min(pending_gaps))
    if pending_tops:
        return ActionOutsideWindow, (
            "generator %r sits on the window top at the end of the timeline"
            % min(pending_tops))
    return None, crossings


QUARTERS = st.integers(0, 24).map(lambda k: q(k, 4))
KNOTS = st.lists(st.sampled_from([q(1, 4), q(1, 3), q(1, 2), q(2, 3),
                                  q(3, 4)]), unique=True).map(sorted)


@st.composite
def segment_families(draw):
    """A family whose last segment is random: 2-6 generators on shared and
    unshared knots with tied values, touching ranges and coincident pieces,
    sloped window edges or an infinite top, entered from a plain start, a
    birth (a zero edge gap at its start) or an entry above (a zero top
    gap).  Returns (initial, items, the differential on that segment)."""
    n = draw(st.integers(2, 6))
    ids = ["g%d" % i for i in range(n)]
    starts = dict(zip(ids, draw(st.lists(QUARTERS, min_size=n, max_size=n))))
    degrees = {gid: draw(st.integers(0, 1)) for gid in ids}
    event = draw(st.sampled_from([None, "birth", "entry_above"]))
    top = 7 if event == "entry_above" else draw(st.sampled_from([7, INF]))
    if event:  # the hold before the event must be generic
        assume(len(set(starts.values())) == n)
    diff = {}
    for s in ids:
        for t in ids:
            if (degrees[s], degrees[t]) == (1, 0) and starts[s] > starts[t] \
                    and draw(st.booleans()):
                diff.setdefault(s, {})[t] = 1
    initial = FilteredComplex(F2, (0, top), [(gid, starts[gid], degrees[gid])
                                             for gid in ids], diff)
    # the rows in the order replay checks them
    seg_diff = {g.id: dict(initial.differential_raw(g.id))
                for g in initial.generators if initial.differential_raw(g.id)}
    t0 = 1 if event else 0

    def path(start, ends=QUARTERS):
        pts = [(t0, start)] + [(t0 + k, draw(QUARTERS)) for k in draw(KNOTS)]
        return pts + [(t0 + 1, draw(ends))]

    paths = {}
    for gid in ids:
        paths[gid] = path(starts[gid])
        if gid != "g0" and draw(st.integers(0, 5)) == 0:
            # follow another path from its first knot on
            twin = paths[draw(st.sampled_from(sorted(paths)))]
            if len(twin) > 2:
                paths[gid] = paths[gid][:1] + twin[1:]
    items = [DriftSegment(0, 1, dict(starts))] if event else []
    if event == "birth":
        c = draw(QUARTERS)
        assume(c not in starts.values())
        items.append(Birth(1, ("x", 1), ("y", 0), c))
        seg_diff["x"] = {"y": 1}
        # x mostly stays above y, on y's knots
        paths["y"] = path(c)
        shifts = st.sampled_from([1, q(1, 2), 0])
        paths["x"] = [(t, v + draw(shifts) if t > t0 else v)
                      for t, v in paths["y"]]
    elif event == "entry_above":
        items.append(EntryAbove(1, "e", draw(st.integers(0, 1))))
        paths["e"] = path(q(top))
    window_a = None
    if draw(st.booleans()):
        window_a = path(q(0), st.sampled_from([-1, 0, q(1, 2)]))
    window_b = None
    if top != INF and draw(st.booleans()):
        window_b = path(q(top), st.sampled_from([8, 7, q(13, 2), 6, 5]))
    items.append(DriftSegment(t0, t0 + 1, paths, window_a=window_a,
                              window_b=window_b))
    return initial, items, seg_diff


@settings(max_examples=400, deadline=None)
@given(segment_families())
def test_segment_replay_matches_path_arithmetic(family):
    initial, items, diff = family
    seg, event = items[-1], (items[-2] if len(items) > 1 else None)
    a = seg.window_a or PLPath.constant(q(0), seg.t0, seg.t1)
    b = seg.window_b or (INF if initial.window[1] == INF
                         else PLPath.constant(q(7), seg.t0, seg.t1))
    # the zeros the event before the segment leaves at its start
    zero_edges = [("x", "y")] if isinstance(event, Birth) else []
    zero_tops = ["e"] if isinstance(event, EntryAbove) else []
    kind, want = _segment_reference(seg, diff, zero_edges, zero_tops, a, b)
    try:
        trace = simulate(initial, items)
    except ChordbarsError as exc:
        assert (type(exc), str(exc)) == (kind, want)
    else:
        assert kind is None and trace.segments[-1].crossings == want


@settings(max_examples=300, deadline=None)
@given(segment_families())
def test_samples_carry_path_values_off_the_grid(family):
    # paths and window edges on their own knots: each sample holds every
    # path's value and both edges' values at its time, an infinite top kept
    initial, items, _diff = family
    try:
        trace = simulate(initial, items)
    except ChordbarsError:
        return
    top = initial.window[1]
    segments = [it for it in items if isinstance(it, DriftSegment)]
    for seg, st_ in zip(segments, trace.segments):
        a = seg.window_a or PLPath.constant(q(0), seg.t0, seg.t1)
        b = seg.window_b or (INF if top == INF
                             else PLPath.constant(q(top), seg.t0, seg.t1))
        for i in st_.sample_indices:
            s = trace.samples[i]
            assert s.actions == {gid: p.value(s.t)
                                 for gid, p in seg.actions.items()}
            assert s.window == (a.value(s.t),
                                INF if b == INF else b.value(s.t))


# ---------------------------------------------------------------------------
# speed audit against plain PLPath arithmetic
# ---------------------------------------------------------------------------

def _knots(path):
    return {t for t0, _, t1, _ in path.pieces() for t in (t0, t1)}


def _slope(path, ta, tb):
    return (path.value(tb) - path.value(ta)) / (tb - ta)


def _audit_reference(items, rate):
    """What ``drift_speed_audit`` must give, from public PLPath arithmetic:
    its (kind, subject, span, ok, detail) entries.  Every value and slope is
    read with ``value`` on the pieces between consecutive breakpoints of the
    segment's paths, window edges and rate; a pair's gap is a path
    difference, cut at its ``zeros`` as well."""
    segments = [it for it in items if isinstance(it, DriftSegment)]
    if not isinstance(rate, PLPath):
        rate = PLPath.constant(q(rate), min(s.t0 for s in segments),
                               max(s.t1 for s in segments))

    def low(ta, tb):
        return min(rate.value(ta), rate.value(tb))

    out = []
    for seg in segments:
        span, paths, ids = (seg.t0, seg.t1), seg.actions, sorted(seg.actions)
        edges = [p for p in (seg.window_a, seg.window_b)
                 if isinstance(p, PLPath)]
        cut = sorted(set().union(*map(_knots, [*paths.values(), *edges]),
                                 {t for t in _knots(rate)
                                  if seg.t0 <= t <= seg.t1}))
        pieces = list(zip(cut, cut[1:]))
        for gid in ids:
            bad = [(abs(s), low(ta, tb), ta, tb) for ta, tb in pieces
                   for s in [_slope(paths[gid], ta, tb)]
                   if s != 0 and not abs(s) < low(ta, tb)]
            out.append(("generator-speed", gid, span, not bad, bad and (
                "|slope| = %s is not strictly below the rate %s on [%s, %s]"
                % bad[0])))
        if isinstance(seg.window_b, PLPath):
            size = seg.window_b - (seg.window_a or PLPath.constant(
                q(0), seg.t0, seg.t1))
            bad = [(s, rate.value(ta), ta, tb) for ta, tb in pieces
                   for s in [_slope(size, ta, tb)] if s != 0
                   and not rate.value(ta) == rate.value(tb) == -s]
            out.append(("window-shrink", None, span, not bad, bad and (
                "window size drifts at %s instead of -rate (%s) on [%s, %s]"
                % bad[0])))
        bad = []
        for i, g1 in enumerate(ids):
            for g2 in ids[i + 1:]:
                gap = paths[g1] - paths[g2]
                ts = sorted(set(cut) | set(gap.zeros()[0]))
                for ta, tb in zip(ts, ts[1:]):
                    va, vb = gap.value(ta), gap.value(tb)
                    if va == vb == 0:
                        continue
                    s = _slope(gap, ta, tb)
                    closing = -s if va > 0 or (va == 0 and vb > 0) else s
                    if closing > low(ta, tb):
                        bad.append((g1, g2, closing, low(ta, tb), ta, tb))
        out.append(("pair-gap", None, span, not bad, bad and (
            "gap between %r and %r closes at speed %s > rate %s on [%s, %s]"
            % bad[0])))
    for ev in items:
        if not isinstance(ev, SingularEvent):
            continue
        ends = [s for s in segments if s.t1 == ev.time]
        if ev.edge is None or ev.exits or not ends:
            continue
        edge = (ends[-1].window_a, ends[-1].window_b)[ev.edge]
        slope = q(0)
        if isinstance(edge, PLPath):
            ta, _, tb, _ = list(edge.pieces())[-1]
            slope = _slope(edge, ta, tb)
        inward, r = -slope if ev.edge else slope, rate.value(ev.time)
        ok = inward < r or inward < 0
        side, moves, outside = (("bottom", "rises", "below"),
                                ("top", "falls", "above"))[ev.edge]
        out.append(("entry-feasible", ev.gid, ev.time, ok, "" if ok else
                    "%s edge %s at %s, at least the rate %s: nothing %s the "
                    "window can catch it" % (side, moves, inward, r, outside)))
    return [entry[:4] + (entry[4] or "",) for entry in out]


@st.composite
def audit_timelines(draw):
    """1-3 unit segments of 1-4 generators (shared knots, tied values and
    paths that follow one another), window edges that are paths, constants
    or an infinite top, a second segment ending with some, and window entry
    and exit events between them.  The rate is a constant or a path, its
    breakpoints inside the segments."""
    ids = ["g%d" % i for i in range(draw(st.integers(1, 4)))]
    n_segs = draw(st.integers(1, 3))
    items = []
    for k in range(n_segs):
        def path(ends=QUARTERS):
            return ([(k, draw(QUARTERS))] + [(k + t, draw(QUARTERS))
                                             for t in draw(KNOTS)]
                    + [(k + 1, draw(ends))])

        for _copy in range(draw(st.sampled_from([1, 1, 1, 2]))):
            paths = {gid: path() for gid in ids}
            if len(ids) > 1 and draw(st.booleans()):  # a tie or a shadow
                g1, g2 = draw(st.permutations(ids))[:2]
                shift = draw(st.sampled_from([0, 0, q(1, 2)]))
                paths[g2] = [(t, v + shift) for t, v in paths[g1]]
            items.append(DriftSegment(
                k, k + 1, paths,
                window_a=draw(st.sampled_from([None, path(), q(1, 4)])),
                window_b=draw(st.sampled_from([None, INF, path(), 7]))))
        for _event in range(draw(st.integers(0, 2))):
            items.append(draw(st.sampled_from([
                EntryBelow(k + 1, "new", 0), EntryAbove(k + 1, "new", 1),
                ExitBelow(k + 1, ids[0]), ExitAbove(k + 1, ids[0])])))
    if draw(st.booleans()):
        return items, draw(st.sampled_from([0, 1, q(3, 2), 6, 40]))
    ts = draw(st.lists(st.fractions(0, n_segs, max_denominator=6),
                       unique=True, max_size=5))
    ts = sorted(set(ts) | {q(0), q(n_segs)})
    value = st.fractions(0, 40, max_denominator=4)
    return items, PLPath([(t, draw(value)) for t in ts])


@settings(max_examples=300, deadline=None)
@given(audit_timelines())
def test_drift_speed_audit_matches_path_arithmetic(case):
    items, rate = case
    got = [(e.kind, e.subject, e.at, e.ok, e.detail)
           for e in drift_speed_audit(items, rate).entries]
    assert got == _audit_reference(items, rate)
