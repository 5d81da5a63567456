"""Strict JSON-compatible text schemas and CSV formats.

All numbers that may be non-integer travel as strings ("3/4", "-2", "inf"
where an infinite window top is legal); floats are rejected everywhere
except oscillation-profile CSV files, which exist for sampled user data.
Decode failures carry line and column; shape violations carry the JSON path
of the offending value.  Serializers emit canonically ordered, fully
deterministic structures.
"""

import csv
import io
import json
from fractions import Fraction
from operator import attrgetter

from .barcodes import format_action
from .bounds import OscillationProfile
from .complexes import INF, FilteredComplex, as_action
from .dga import Augmentation, Chord, ChordDGA
from .errors import ParseError, ValidationError
from .fields import Field
from .timelines import (Birth, Death, DriftSegment, EntryAbove, EntryBelow,
                        ExitAbove, ExitBelow, HandleSlide)

# ---------------------------------------------------------------------------
# decoding with locators
# ---------------------------------------------------------------------------

def loads(text, source="<input>"):
    """Decode JSON text; decode errors cite line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg,
                         where="%s line %d column %d"
                         % (source, exc.lineno, exc.colno)) from None


def _obj(value, where, required=(), optional=()):
    if not isinstance(value, dict):
        raise ParseError("expected an object", where)
    allowed = set(required) | set(optional)
    for key in value:
        if key not in allowed:
            raise ParseError("unknown key %r" % key, where)
    for key in required:
        if key not in value:
            raise ParseError("missing key %r" % key, where)
    return value


def _list(value, where):
    if not isinstance(value, list):
        raise ParseError("expected an array", where)
    return value


def _str(value, where):
    if not isinstance(value, str):
        raise ParseError("expected a string", where)
    return value


def _int(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError("expected an integer", where)
    return value


def _action(value, where, allow_inf=False):
    if isinstance(value, float) or isinstance(value, bool):
        raise ParseError("numbers must be integers or rational strings",
                         where)
    if not isinstance(value, (str, int)):
        raise ParseError("expected a rational value", where)
    try:
        return as_action(value, allow_inf=allow_inf)
    except ValidationError as exc:
        raise ParseError(str(exc), where) from None


def _scalar_str(value, where):
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError("scalars must be integers or rational strings",
                         where)
    if not isinstance(value, (str, int)):
        raise ParseError("expected a scalar", where)
    return value


# ---------------------------------------------------------------------------
# filtered complexes
# ---------------------------------------------------------------------------

def parse_complex(obj, where="complex"):
    obj = _obj(obj, where, required=("field", "window", "generators"),
               optional=("differential",))
    field = Field.parse(_str(obj["field"], where + ".field"))
    win = _list(obj["window"], where + ".window")
    if len(win) != 2:
        raise ParseError("window must be [a, b]", where + ".window")
    a = _action(win[0], where + ".window[0]")
    b = _action(win[1], where + ".window[1]", allow_inf=True)
    gens = []
    for i, g in enumerate(_list(obj["generators"], where + ".generators")):
        gw = "%s.generators[%d]" % (where, i)
        g = _obj(g, gw, required=("id", "action", "degree"))
        gens.append((_str(g["id"], gw + ".id"),
                     _action(g["action"], gw + ".action"),
                     _int(g["degree"], gw + ".degree")))
    diff = {}
    raw_diff = obj.get("differential", {})
    if not isinstance(raw_diff, dict):
        raise ParseError("expected an object", where + ".differential")
    for gid, row in raw_diff.items():
        rw = "%s.differential[%r]" % (where, gid)
        terms = {}
        for j, entry in enumerate(_list(row, rw)):
            ew = "%s[%d]" % (rw, j)
            entry = _obj(entry, ew, required=("id", "coeff"))
            tid = _str(entry["id"], ew + ".id")
            if tid in terms:
                raise ParseError("target %r repeated" % tid, ew + ".id")
            terms[tid] = _scalar_str(entry["coeff"], ew + ".coeff")
        diff[gid] = terms
    return FilteredComplex(field, (a, b), gens, diff)


def serialize_complex(cx):
    diff = {}
    for g in cx.generators:
        row = cx.differential_raw(g.id)
        if row:
            diff[g.id] = [{"id": tid, "coeff": cx.field.format(c)}
                          for tid, c in sorted(row.items())]
    a, b = cx.window
    return {
        "field": cx.field.tag,
        "window": [format_action(a), format_action(b)],
        "generators": [{"id": g.id, "action": format_action(g.action),
                        "degree": g.degree} for g in cx.generators],
        "differential": diff,
    }


# ---------------------------------------------------------------------------
# chord algebras and augmentations
# ---------------------------------------------------------------------------

def parse_dga(obj, where="dga"):
    obj = _obj(obj, where, required=("field", "chords"),
               optional=("differential",))
    field = Field.parse(_str(obj["field"], where + ".field"))
    chords = []
    for i, c in enumerate(_list(obj["chords"], where + ".chords")):
        cw = "%s.chords[%d]" % (where, i)
        c = _obj(c, cw, required=("label", "length", "degree", "ends"),
                 optional=("component", "kind"))
        ends = _list(c["ends"], cw + ".ends")
        if len(ends) != 2:
            raise ParseError("ends must be [start, end]", cw + ".ends")
        chord = Chord(_str(c["label"], cw + ".label"),
                      _action(c["length"], cw + ".length"),
                      _int(c["degree"], cw + ".degree"),
                      (_int(ends[0], cw + ".ends[0]"),
                       _int(ends[1], cw + ".ends[1]")))
        if "kind" in c and c["kind"] != chord.kind:
            raise ParseError("kind %r contradicts ends" % c["kind"],
                             cw + ".kind")
        if "component" in c and c["component"] is not None \
                and c["component"] != chord.component:
            raise ParseError("component contradicts ends", cw + ".component")
        chords.append(chord)
    diff = {}
    raw_diff = obj.get("differential", {})
    if not isinstance(raw_diff, dict):
        raise ParseError("expected an object", where + ".differential")
    for label, row in raw_diff.items():
        rw = "%s.differential[%r]" % (where, label)
        terms = []
        for j, entry in enumerate(_list(row, rw)):
            ew = "%s[%d]" % (rw, j)
            entry = _obj(entry, ew, required=("coeff", "word"))
            word = [_str(x, "%s.word[%d]" % (ew, k))
                    for k, x in enumerate(_list(entry["word"], ew + ".word"))]
            terms.append((_scalar_str(entry["coeff"], ew + ".coeff"), word))
        diff[label] = terms
    return ChordDGA(field, chords, diff)


def serialize_dga(D):
    diff = {}
    for label in sorted(D.differential):
        elem = D.differential[label]
        diff[label] = [{"coeff": D.field.format(elem.terms[w]),
                        "word": list(w)}
                       for w in sorted(elem.terms, key=lambda w: (len(w), w))]
    return {
        "field": D.field.tag,
        "chords": [{"label": c.label, "length": format_action(c.length),
                    "degree": c.degree, "component": c.component,
                    "kind": c.kind, "ends": list(c.ends)}
                   for c in D.chords],
        "differential": diff,
    }


def parse_augmentation(obj, field, where="augmentation"):
    if not isinstance(obj, dict):
        raise ParseError("expected an object", where)
    values = {}
    for label, v in obj.items():
        values[label] = _scalar_str(v, "%s[%r]" % (where, label))
    try:
        return Augmentation(field, values)
    except ValidationError as exc:
        raise ParseError(str(exc), where) from None


# ---------------------------------------------------------------------------
# timelines
# ---------------------------------------------------------------------------

def _path_spec(value, where):
    """A rational constant or a [[t, v], ...] polyline."""
    if isinstance(value, list):
        pts = []
        for i, pair in enumerate(value):
            pw = "%s[%d]" % (where, i)
            pair = _list(pair, pw)
            if len(pair) != 2:
                raise ParseError("expected [t, value]", pw)
            pts.append((_action(pair[0], pw + "[0]"),
                        _action(pair[1], pw + "[1]")))
        return pts
    return _action(value, where)


def _scalar_map(obj, where):
    if not isinstance(obj, dict):
        raise ParseError("expected an object", where)
    return {gid: _scalar_str(v, "%s[%r]" % (where, gid))
            for gid, v in obj.items()}


def _scalar_map_json(values):
    return {gid: str(c) for gid, c in sorted(values.items())}


def _endpoint(value, where):
    """A birth endpoint [id, degree]; a wrong length is reported at the
    item's path."""
    pair = _list(value, where)
    if len(pair) != 2:
        raise ParseError("birth endpoints are [id, degree]",
                         where.rpartition(".")[0])
    return _str(pair[0], where + "[0]"), _int(pair[1], where + "[1]")


def _field(key, attrs, parse, fmt=None, *default):
    """One JSON field of an event item: its key, the event attribute(s) it
    holds, how it parses and formats, and its default if it is optional."""
    return (key, attrgetter(*attrs.split()), parse, fmt or (lambda v: v)) \
        + default


_GID = _field("id", "gid", _str)
_DEGREE = _field("degree", "degree", _int)

# every event item has a "type" and a "time"; this lists the rest, in the
# order of the class's constructor arguments
_EVENT_ITEMS = {
    "handle_slide": (HandleSlide, (
        _field("target", "target", _str),
        _field("addend", "addend", _scalar_map, _scalar_map_json),
        _field("unit", "unit", _scalar_str, str, 1))),
    "birth": (Birth, (
        _field("x", "x_id x_degree", _endpoint, list),
        _field("y", "y_id y_degree", _endpoint, list),
        _field("common_action", "common_action", _action, format_action))),
    "death": (Death, (_field("x", "x_id", _str), _field("y", "y_id", _str))),
    "exit_below": (ExitBelow, (_GID,)),
    "exit_above": (ExitAbove, (_GID,)),
    "entry_below": (EntryBelow, (_GID, _DEGREE, _field(
        "couplings", "couplings", _scalar_map, _scalar_map_json, {}))),
    "entry_above": (EntryAbove, (_GID, _DEGREE, _field(
        "boundary", "boundary", _scalar_map, _scalar_map_json, {}))),
}


def parse_timeline_item(item, where):
    item = dict(item) if isinstance(item, dict) else item
    if not isinstance(item, dict) or "type" not in item:
        raise ParseError("expected an object with a \"type\" key", where)
    kind = item["type"]
    if kind == "drift":
        _obj(item, where, required=("type", "t0", "t1", "actions"),
             optional=("window_a", "window_b"))
        actions = item["actions"]
        if not isinstance(actions, dict):
            raise ParseError("expected an object", where + ".actions")
        paths = {gid: _path_spec(p, "%s.actions[%r]" % (where, gid))
                 for gid, p in actions.items()}
        wa = item.get("window_a")
        wb = item.get("window_b")
        return DriftSegment(
            _action(item["t0"], where + ".t0"),
            _action(item["t1"], where + ".t1"),
            paths,
            None if wa is None else _path_spec(wa, where + ".window_a"),
            None if wb is None else (
                INF if wb == "inf" else _path_spec(wb, where + ".window_b")))
    if not isinstance(kind, str) or kind not in _EVENT_ITEMS:
        raise ParseError("unknown timeline item type %r" % (kind,),
                         where + ".type")
    cls, fields = _EVENT_ITEMS[kind]
    _obj(item, where, required=("type", "time") + tuple(
        f[0] for f in fields if len(f) == 4),
        optional=[f[0] for f in fields if len(f) == 5])
    return cls(_action(item["time"], where + ".time"),
               *(parse(item.get(key, *default), "%s.%s" % (where, key))
                 for key, _get, parse, _fmt, *default in fields))


def parse_timeline(obj, where="timeline"):
    """A timeline file: {"initial": <complex>, "items": [...]}, returning
    (initial complex, ordered item list)."""
    obj = _obj(obj, where, required=("initial", "items"))
    initial = parse_complex(obj["initial"], where + ".initial")
    items = [parse_timeline_item(it, "%s.items[%d]" % (where, i))
             for i, it in enumerate(_list(obj["items"], where + ".items"))]
    return initial, items


def _serialize_path(path, t0, t1):
    pts = path.points if hasattr(path, "points") else path
    if len(pts) == 2 and pts[0][1] == pts[1][1] \
            and (pts[0][0], pts[1][0]) == (t0, t1):
        return format_action(pts[0][1])
    return [[format_action(t), format_action(v)] for t, v in pts]


def serialize_timeline_item(item):
    if isinstance(item, DriftSegment):
        out = {"type": "drift", "t0": format_action(item.t0),
               "t1": format_action(item.t1),
               "actions": {gid: _serialize_path(p, item.t0, item.t1)
                           for gid, p in sorted(item.actions.items())}}
        if item.window_a is not None:
            out["window_a"] = _serialize_path(item.window_a, item.t0, item.t1)
        if item.window_b is not None:
            out["window_b"] = ("inf" if item.window_b == INF else
                               _serialize_path(item.window_b, item.t0, item.t1))
        return out
    out = {"type": item.kind, "time": format_action(item.time)}
    for key, get, _parse, fmt, *default in _EVENT_ITEMS[item.kind][1]:
        value = get(item)
        if not default or value != default[0]:
            out[key] = fmt(value)
    return out


def serialize_timeline(initial, items):
    return {"initial": serialize_complex(initial),
            "items": [serialize_timeline_item(it) for it in items]}


# ---------------------------------------------------------------------------
# barcodes, vineyards, profiles
# ---------------------------------------------------------------------------

def barcode_json(B):
    return [{"start": format_action(bar.start),
             "end": format_action(bar.end),
             "degree": bar.degree}
            for bar in B.bars]


def vineyard_csv(rows):
    """CSV text with the stable column set (t, bar_id, start, end)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["t", "bar_id", "start", "end"])
    for t, bar_id, start, end, _degree in rows:
        w.writerow([format_action(t), bar_id,
                    format_action(start), format_action(end)])
    return buf.getvalue()


def parse_profile_csv(text, source="<profile>"):
    """Oscillation profile from CSV rows t,max,min (header optional).

    Float literals are accepted here — sampled user data — and switch the
    profile into float mode with its 1e-9 tolerance.
    """
    rows = []
    for lineno, record in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not record or (lineno == 1 and record[0].strip().lower() == "t"):
            continue
        if len(record) != 3:
            raise ParseError("expected 3 columns (t, max, min)",
                             "%s line %d" % (source, lineno))
        try:
            vals = [float(x) if "." in x or "e" in x.lower() else Fraction(x)
                    for x in (s.strip() for s in record)]
            if INF in vals or -INF in vals:
                raise ValueError("%s overflows to infinity" % ",".join(record))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError("bad number: %s" % exc,
                             "%s line %d" % (source, lineno)) from None
        rows.append(tuple(vals))
    if not rows:
        raise ParseError("profile file has no samples", source)
    return OscillationProfile(rows)


def parse_rational_array(obj, where, allow_inf=False):
    return [_action(v, "%s[%d]" % (where, i), allow_inf=allow_inf)
            for i, v in enumerate(_list(obj, where))]


def dumps(obj):
    """Canonical deterministic JSON text (sorted keys, trailing newline)."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
