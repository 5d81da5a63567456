"""Strict text formats: JSON schemas, CSV, locators, determinism."""

from fractions import Fraction

import pytest

from chordbars import INF, barcode_of, simulate
from chordbars.errors import ParseError
from chordbars.schemas import (barcode_json, dumps, loads, parse_complex,
                               parse_dga, parse_profile_csv,
                               parse_rational_array, parse_timeline,
                               serialize_complex, serialize_dga,
                               serialize_timeline, vineyard_csv)

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
         "boundary": {"a": "3/2"}},
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
    (0, "t1", 1.5, "numbers must be integers or rational strings", ".t1"),
    (3, "target", 3, "expected a string", ".target"),
    (4, "unit", True, "scalars must be integers or rational strings",
     ".unit"),
    (5, "x", ["u", "1"], "expected an integer", ".x[1]"),
    (5, "y", ["v"], "birth endpoints are [id, degree]", ""),
    (6, "y", ["a"], "expected a string", ".y"),
    (7, "id", 7, "expected a string", ".id"),
    (8, "time", 0.5, "numbers must be integers or rational strings",
     ".time"),
    (9, "degree", "0", "expected an integer", ".degree"),
    (10, "couplings", ["b"], "expected an object", ".couplings"),
    (12, "boundary", {"a": 1.5},
     "scalars must be integers or rational strings", ".boundary['a']"),
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
