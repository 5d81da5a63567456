"""Strict text formats: JSON schemas, CSV, locators, determinism."""

import json
from collections import Counter
from fractions import Fraction

import pytest

from chordbars import F2, INF, barcode_of, schemas, simulate
from chordbars.barcodes import format_action
from chordbars.errors import ChordbarsError, ParseError, ValidationError
from chordbars.schemas import (barcode_json, dumps, loads, parse_complex,
                               parse_dga, parse_profile_csv,
                               parse_rational_array, parse_timeline,
                               serialize_complex, serialize_dga,
                               serialize_timeline, vineyard_csv)

from support import count_calls

q = Fraction

_COMPLEX_DOC = {
    "field": "F2",
    "window": ["0", "inf"],
    "generators": [
        {"id": "a", "action": "1", "degree": 0},
        {"id": "b", "action": "3/2", "degree": 1},
        {"id": "c", "action": "2", "degree": 1},
    ],
    "differential": {"b": [{"id": "a", "coeff": "1"}]},
}


def test_complex_roundtrip():
    cx = parse_complex(_COMPLEX_DOC)
    assert cx.window == (0, INF)
    assert [g.id for g in cx.generators] == ["a", "b", "c"]
    assert serialize_complex(cx) == _COMPLEX_DOC
    again = parse_complex(serialize_complex(cx))
    assert serialize_complex(again) == _COMPLEX_DOC


def test_decode_error_cites_line_and_column():
    with pytest.raises(ParseError) as info:
        loads('{"field": }', "f.json")
    assert "f.json line 1 column" in str(info.value)


def test_unknown_key_rejected():
    doc = dict(_COMPLEX_DOC)
    doc["extra"] = 1
    with pytest.raises(ParseError) as info:
        parse_complex(doc)
    assert "unknown key 'extra'" in str(info.value)


def test_shape_errors_carry_json_paths():
    doc = {
        "field": "F2",
        "window": ["0", "inf"],
        "generators": [
            {"id": "a", "action": "1", "degree": 0},
            {"id": "b", "action": 1.5, "degree": 1},
        ],
    }
    with pytest.raises(ParseError) as info:
        parse_complex(doc)
    assert "complex.generators[1].action" in str(info.value)
    bad_window = dict(_COMPLEX_DOC)
    bad_window["window"] = ["0"]
    with pytest.raises(ParseError) as info:
        parse_complex(bad_window)
    assert "complex.window" in str(info.value)
    doc["generators"][1] = {"id": "", "action": "2", "degree": 1}
    with pytest.raises(ParseError) as info:
        parse_complex(doc)
    assert str(info.value) == ("generator id must be a nonempty string, "
                               "got '' (at complex.generators[1].id)")


def test_duplicate_differential_target_rejected():
    doc = dict(_COMPLEX_DOC)
    doc["differential"] = {"b": [{"id": "a", "coeff": "1"},
                                 {"id": "a", "coeff": "1"}]}
    with pytest.raises(ParseError) as info:
        parse_complex(doc)
    assert "repeated" in str(info.value)
    assert "differential['b'][1].id" in str(info.value)


_DGA_DOC = {
    "field": "Q",
    "chords": [
        {"label": "p", "length": "1", "degree": 0, "component": 0,
         "kind": "pure", "ends": [0, 0]},
        {"label": "m", "length": "2", "degree": 1, "component": None,
         "kind": "mixed", "ends": [0, 1]},
    ],
    "differential": {"m": [{"coeff": "1", "word": ["p"]}]},
}


def test_dga_roundtrip():
    D = parse_dga(_DGA_DOC)
    assert [c.label for c in D.chords] == ["p", "m"]
    assert serialize_dga(D) == _DGA_DOC


def test_dga_kind_consistency():
    doc = {"field": "Q",
           "chords": [{"label": "p", "length": "1", "degree": 0,
                       "kind": "mixed", "ends": [0, 0]}]}
    with pytest.raises(ParseError) as info:
        parse_dga(doc)
    assert "contradicts ends" in str(info.value)
    doc2 = {"field": "Q",
            "chords": [{"label": "p", "length": "1", "degree": 0,
                        "component": 1, "ends": [0, 0]}]}
    with pytest.raises(ParseError) as info:
        parse_dga(doc2)
    assert "component contradicts ends" in str(info.value)


_TIMELINE_DOC = {
    "initial": _COMPLEX_DOC,
    "items": [
        {"type": "drift", "t0": "0", "t1": "1/2",
         "actions": {"a": [["0", "1"], ["1/2", "9/8"]],
                     "b": "3/2", "c": "2"}},
        {"type": "handle_slide", "time": "1/2", "target": "c",
         "addend": {"b": "1"}},
        {"type": "drift", "t0": "1/2", "t1": "1",
         "actions": {"a": "9/8", "b": "3/2", "c": "2"}},
    ],
}


def test_timeline_roundtrip_and_constant_collapse():
    initial, items = parse_timeline(_TIMELINE_DOC)
    assert len(items) == 3
    assert serialize_timeline(initial, items) == _TIMELINE_DOC
    trace = simulate(initial, items)
    assert trace.samples[-1].t == 1


def test_timeline_item_type_checked():
    for kind in ("teleport", ["handle_slide"], {"a": 1}):
        doc = {"initial": _COMPLEX_DOC,
               "items": [{"type": kind, "time": "0"}]}
        with pytest.raises(ParseError) as info:
            parse_timeline(doc)
        assert "unknown timeline item type %r" % (kind,) in str(info.value)
        assert "timeline.items[0].type" in str(info.value)


_ALL_ITEMS_DOC = {
    "initial": _COMPLEX_DOC,
    "items": [
        {"type": "drift", "t0": "0", "t1": "1", "actions": {"a": "1"}},
        {"type": "drift", "t0": "1", "t1": "2", "actions": {"a": "1"},
         "window_a": [["1", "0"], ["2", "1/2"]],
         "window_b": [["1", "8"], ["2", "6"]]},
        {"type": "drift", "t0": "2", "t1": "3", "actions": {"a": "1"},
         "window_a": "0", "window_b": "inf"},
        {"type": "handle_slide", "time": "1", "target": "c",
         "addend": {"b": "1"}},
        {"type": "handle_slide", "time": "1", "target": "c",
         "addend": {"b": "1"}, "unit": "2"},
        {"type": "birth", "time": "1", "x": ["u", 1], "y": ["v", 0],
         "common_action": "5/2"},
        {"type": "death", "time": "1", "x": "b", "y": "a"},
        {"type": "exit_below", "time": "1", "id": "a"},
        {"type": "exit_above", "time": "1", "id": "c"},
        {"type": "entry_below", "time": "1", "id": "w", "degree": 0},
        {"type": "entry_below", "time": "1", "id": "w", "degree": 0,
         "couplings": {"b": "1", "c": "-2"}},
        {"type": "entry_above", "time": "1", "id": "z", "degree": 1},
        {"type": "entry_above", "time": "1", "id": "z", "degree": 1,
         "boundary": {"a": "1/3"}},
    ],
}


def test_every_item_kind_roundtrips():
    # each optional field both present and absent; no benchmark document
    # uses a slide unit or a window path
    initial, items = parse_timeline(_ALL_ITEMS_DOC)
    assert [type(it).__name__ for it in items] == [
        "DriftSegment", "DriftSegment", "DriftSegment", "HandleSlide",
        "HandleSlide", "Birth", "Death", "ExitBelow", "ExitAbove",
        "EntryBelow", "EntryBelow", "EntryAbove", "EntryAbove"]
    assert items[2].window_b == INF and items[4].unit == "2"
    assert serialize_timeline(initial, items) == _ALL_ITEMS_DOC


@pytest.mark.parametrize("index, key, value, message, where", [
    (0, "t1", 1.5, "action values must be exact rationals, got 1.5", ".t1"),
    (3, "target", 3, "generator id must be a nonempty string, got 3",
     ".target"),
    (4, "unit", True, "booleans are not scalars", ".unit"),
    (5, "x", ["u", "1"], "degree must be an integer, got '1'", ".x[1]"),
    (5, "y", ["v"], "birth endpoints are [id, degree]", ""),
    (6, "y", ["a"], "generator id must be a nonempty string, got ['a']",
     ".y"),
    (7, "id", 7, "generator id must be a nonempty string, got 7", ".id"),
    (8, "time", 0.5, "action values must be exact rationals, got 0.5",
     ".time"),
    (9, "degree", "0", "degree must be an integer, got '0'", ".degree"),
    (10, "couplings", ["b"], "expected an object", ".couplings"),
    (12, "boundary", {"a": 1.5}, "cannot coerce 1.5 into F2",
     ".boundary['a']"),
    # ids of new generators must be nonempty
    (5, "x", ["", 1], "generator id must be a nonempty string, got ''",
     ".x[0]"),
    (5, "y", ["", 0], "generator id must be a nonempty string, got ''",
     ".y[0]"),
    (9, "id", "", "generator id must be a nonempty string, got ''", ".id"),
    (11, "id", "", "generator id must be a nonempty string, got ''", ".id"),
])
def test_item_field_errors_carry_json_paths(index, key, value, message,
                                            where):
    doc = {"initial": _COMPLEX_DOC,
           "items": [dict(it) for it in _ALL_ITEMS_DOC["items"]]}
    doc["items"][index][key] = value
    with pytest.raises(ParseError) as info:
        parse_timeline(doc)
    assert str(info.value) == "%s (at timeline.items[%d]%s)" % (
        message, index, where)


def test_knot_times_are_read_once_per_item(monkeypatch):
    # a drift item reads each distinct knot-time string once: its paths,
    # the window edges, t0 and t1 too, share the Fraction
    from chordbars import schemas
    item = {"type": "drift", "t0": "0", "t1": "1",
            "actions": {"a": [["0", "1"], ["1/2", "2"], ["1", "1"]],
                        "b": [["0", "3"], ["1/3", "4"], ["1", "3"]],
                        "c": "5"},
            "window_a": [["0", "0"], ["1/3", "0"], ["1", "1/2"]]}
    calls = count_calls(monkeypatch, schemas, "as_action")
    seg = schemas.parse_timeline_item(item, F2, "x")
    # the library reader sees each distinct knot time, each knot value and
    # the constant path once
    values = [v for p in (*item["actions"].values(), item["window_a"])
              if isinstance(p, list) for _t, v in p]
    assert len(calls) == len({"0", "1/2", "1", "1/3"}) + len(values) + 1
    paths = [seg.actions["a"], seg.actions["b"], seg.window_a]
    assert seg.t0 is paths[0].points[0][0] is paths[1].points[0][0] \
        is paths[2].points[0][0]
    assert seg.t1 is paths[0].points[-1][0]
    assert paths[1].points[1][0] is paths[2].points[1][0]
    assert paths[0].points[-1][0] is paths[1].points[-1][0]
    # a bad knot in a later path raises at that path's JSON path
    bad = dict(item, actions=dict(item["actions"],
                                  c=[["0", "5"], ["1/2x", "5"], ["1", "5"]]))
    with pytest.raises(ParseError) as info:
        schemas.parse_timeline_item(bad, F2, "x")
    assert str(info.value).endswith("(at x.actions['c'][1][0])")
    # only a string is looked up: true and 1.0 are refused after "1" and 1
    for knot in (True, 1.0):
        bad = dict(item, actions=dict(item["actions"],
                                      c=[[0, "5"], [1, "5"], [knot, "5"]]))
        with pytest.raises(ParseError) as info:
            schemas.parse_timeline_item(bad, F2, "x")
        assert str(info.value).endswith("(at x.actions['c'][2][0])")
    # an unhashable t0 or t1 is refused at its path, not looked up
    for key in ("t0", "t1"):
        for bad in ([], {}):
            with pytest.raises(ParseError) as info:
                schemas.parse_timeline_item(dict(item, **{key: bad}), F2, "x")
            assert str(info.value) == \
                "cannot read action value %r (at x.%s)" % (bad, key)


def _ids_in(doc):
    """Every id-valued value and key of a document, found by its schema."""
    def complex_ids(cx):
        yield from (g["id"] for g in cx["generators"])
        for gid, row in cx.get("differential", {}).items():
            yield gid
            yield from (entry["id"] for entry in row)

    if "chords" in doc:
        yield from (c["label"] for c in doc["chords"])
        for label, row in doc.get("differential", {}).items():
            yield label
            for entry in row:
                yield from entry["word"]
    elif "initial" in doc:
        yield from complex_ids(doc["initial"])
        for it in doc["items"]:
            yield from it.get("actions", ())
            for key in ("target", "id", "x", "y"):
                if key in it:
                    yield it[key][0] if it["type"] == "birth" else it[key]
            for key in ("addend", "couplings", "boundary"):
                yield from it.get(key, ())
    elif "generators" in doc:
        yield from complex_ids(doc)
    else:  # an augmentation
        yield from doc


def test_every_id_is_read_once(monkeypatch):
    # schemas reads each id-valued JSON value and key of the fixture
    # documents (and of every item kind) once, with the one id reader
    from chordbars.cli import _fixture_files
    docs = [json.loads(text) for name, text in sorted(_fixture_files().items())
            if name.endswith(".json")]
    docs += [_ALL_ITEMS_DOC, {"c@0": "1", "c@1": "2"}]
    calls = count_calls(monkeypatch, schemas, "as_id")
    read = 0
    for doc in filter(lambda doc: isinstance(doc, dict), docs):
        del calls[:]
        if "chords" in doc:
            schemas.parse_dga(doc)
        elif "initial" in doc:
            schemas.parse_timeline(doc)
        elif "generators" in doc:
            schemas.parse_complex(doc)
        else:
            schemas.parse_augmentation(doc, F2)
        assert Counter(args[0] for args in calls) == Counter(_ids_in(doc))
        read += len(calls)
    assert read == 74


def test_barcode_json_shape():
    B = barcode_of(parse_complex(_COMPLEX_DOC))
    assert barcode_json(B) == [
        {"start": "1", "end": "3/2", "degree": 0},
        {"start": "2", "end": "inf", "degree": 1},
    ]


def test_vineyard_csv_columns():
    rows = [(0, "b000", 1, INF, 0), (q(1, 2), "b000", 1, 2, 0)]
    assert vineyard_csv(rows) == (
        "t,bar_id,start,end\n"
        "0,b000,1,inf\n"
        "1/2,b000,1,2\n")
    # a sample's bars share its time: each row still carries it
    t = q(3, 4)
    rows += [(t, "b001", 0, 1, 0), (t, "b002", q(1, 3), INF, 1),
             (q(3, 4), "b001", 0, 2, 0), (INF, "b003", 0, 1, 0)]
    assert vineyard_csv(rows).splitlines()[3:] == [
        "3/4,b001,0,1", "3/4,b002,1/3,inf", "3/4,b001,0,2", "inf,b003,0,1"]



def test_vineyard_csv_refuses_overlong_values_as_format_action_does():
    # a row value with more digits than str() prints raises the guarded
    # writer's ValidationError, whichever column holds it
    big = q(1, 10 ** 4400 + 1)
    with pytest.raises(ValidationError) as want:
        format_action(big)
    for row in [(big, "b000", 0, INF, 0), (0, "b000", big, INF, 0),
                (0, "b000", 0, 10 ** 4400, 0)]:
        with pytest.raises(ValidationError) as info:
            vineyard_csv([(0, "b001", 1, 2, 0), row])
        assert str(info.value) == str(want.value)


_KNOTS = [["0", "1"], ["1/2", "2"], ["1", "1"]]
_UNORDERED = [["0", "1"], ["1", "2"], ["1/2", "1"]]
_FALLS = "breakpoint times must strictly increase (1 then 1/2)"


@pytest.mark.parametrize("actions, extra, error", [
    # every value is read before any path is built
    ({"a": _UNORDERED, "b": [["0", "1"], ["1/2", "x"], ["1", "1"]]}, {},
     ("ParseError", "cannot read action value 'x' "
                    "(at x.actions['b'][1][1])")),
    ({"a": _UNORDERED, "b": _KNOTS}, {"t1": "1/0"},
     ("ParseError", "cannot read action value '1/0' (at x.t1)")),
    ({"a": _UNORDERED, "b": _KNOTS}, {"window_a": [["0", "x"]]},
     ("ParseError", "cannot read action value 'x' (at x.window_a[0][1])")),
    ({"a": _KNOTS, "b": [["0", 1.5], ["1", "1"]]}, {"t0": "1"},
     ("ParseError", "action values must be exact rationals, got 1.5 "
                    "(at x.actions['b'][0][1])")),
    # t0 < t1 is checked before any path
    ({"a": _UNORDERED, "b": _KNOTS}, {"t0": "1", "t1": "0"},
     ("ValidationError", "drift segment needs t0 < t1")),
    ({"a": [["0", "1"]], "b": _KNOTS}, {"t0": "2"},
     ("ValidationError", "drift segment needs t0 < t1")),
    # then the paths in order: actions, window bottom, window top
    ({"a": [["0", "1"]], "b": _UNORDERED}, {},
     ("ValidationError", "a path needs at least two breakpoints")),
    ({"a": _UNORDERED, "b": [["0", "1"]]}, {},
     ("NonMonotoneTime", _FALLS)),
    ({"a": _KNOTS, "b": []}, {},
     ("ValidationError", "a path needs at least two breakpoints")),
    ({"a": _KNOTS, "b": _KNOTS, "c": _UNORDERED}, {},
     ("NonMonotoneTime", _FALLS)),
    ({"a": _KNOTS, "b": [["0", "1"], ["2/4", "2"], ["1/2", "1"],
                         ["1", "1"]]}, {},
     ("NonMonotoneTime",
      "breakpoint times must strictly increase (1/2 then 1/2)")),
    ({"a": [[0, "1"], [1, "2"], ["1/2", "1"]], "b": _KNOTS}, {},
     ("NonMonotoneTime", _FALLS)),
    ({"a": _KNOTS, "b": _KNOTS}, {"window_a": _UNORDERED},
     ("NonMonotoneTime", _FALLS)),
    ({"a": _KNOTS, "b": _KNOTS},
     {"window_a": [["0", "1"]], "window_b": "inf"},
     ("ValidationError", "a path needs at least two breakpoints")),
    ({"a": _KNOTS, "b": _KNOTS}, {"window_a": _KNOTS, "window_b": _UNORDERED},
     ("NonMonotoneTime", _FALLS)),
    # and last the spans
    ({"a": [["0", "1"], ["1/2", "2"]], "b": _UNORDERED}, {},
     ("NonMonotoneTime", _FALLS)),
    ({"a": [["0", "1"], ["1/2", "2"]], "b": _KNOTS}, {},
     ("ValidationError", "action path of 'a' does not span [0, 1]")),
    ({"a": _KNOTS}, {"t1": "2"},
     ("ValidationError", "action path of 'a' does not span [0, 2]")),
    ({"a": _KNOTS, "b": _KNOTS}, {"window_b": [["0", "1"], ["1/2", "2"]]},
     ("ValidationError", "window path does not span the segment")),
])
def test_drift_item_reports_its_first_fault(actions, extra, error):
    # a drift item with several faults reports the first one in this order:
    # values read (ParseError at the value's JSON path), t0 < t1, each
    # path's breakpoints, each path's span
    item = dict({"type": "drift", "t0": "0", "t1": "1", "actions": actions},
                **extra)
    with pytest.raises(ChordbarsError) as info:
        schemas.parse_timeline_item(item, F2, "x")
    assert (type(info.value).__name__, str(info.value)) == error


def test_profile_csv_rational_mode():
    prof = parse_profile_csv("t,max,min\n0,2,0\n1/2,4,-1\n1,2,0\n")
    assert not prof.float_mode
    assert prof.hi.value(q(1, 4)) == 3


def test_profile_csv_float_mode():
    prof = parse_profile_csv("0,2.0,0.0\n1,2.0,0.0\n")
    assert prof.float_mode


def test_profile_csv_errors():
    with pytest.raises(ParseError) as info:
        parse_profile_csv("0,2\n", source="p.csv")
    assert "expected 3 columns (t, max, min)" in str(info.value)
    assert "p.csv line 1" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_profile_csv("t,max,min\n")
    assert "no samples" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_profile_csv("0,two,0\n", source="p.csv")
    assert "bad number" in str(info.value) and "line 1" in str(info.value)
    for cell in ("1e400", "-1e400", "1.5e999"):  # floats that overflow
        with pytest.raises(ParseError) as info:
            parse_profile_csv("t,max,min\n0,%s,0\n1,2,0\n" % cell,
                              source="p.csv")
        assert "bad number" in str(info.value)
        assert "p.csv line 2" in str(info.value)


def test_rational_array():
    vals = parse_rational_array(["5", "inf", "5"], "sigma", allow_inf=True)
    assert vals == [5, INF, 5]
    with pytest.raises(ParseError) as info:
        parse_rational_array(["5", 1.5], "sigma")
    assert "sigma[1]" in str(info.value)


def test_dumps_canonical():
    text = dumps({"b": 1, "a": [2, {"d": 3, "c": 4}]})
    assert text == (
        '{\n  "a": [\n    2,\n    {\n      "c": 4,\n      "d": 3\n    }\n'
        '  ],\n  "b": 1\n}\n')
    assert text.endswith("\n")
