"""Strict JSON-compatible text schemas and CSV formats.

All numbers that may be non-integer travel as strings ("3/4", "-2", "inf"
where an infinite window top is legal); floats are rejected everywhere
except oscillation-profile CSV files, which exist for sampled user data.
Decode failures carry line and column; shape violations carry the JSON path
of the offending value, and so does a value refused by the library reader
of its kind, which reads it once and owns the rule and its message.
Serializers emit canonically ordered, fully deterministic structures.
"""

import csv
import io
import json
from fractions import Fraction
from functools import partial
from operator import attrgetter, itemgetter

from .barcodes import format_action
from .bounds import OscillationProfile, as_rank
from .complexes import INF, FilteredComplex, as_action, as_degree, as_id
from .dga import Augmentation, Chord, ChordDGA
from .errors import ChordbarsError, ParseError
from .fields import Field, _unprintable
from .piecewise import PLPath
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
    except ValueError as exc:  # an integer literal longer than int() reads
        raise ParseError(str(exc), where=source) from None
    except RecursionError:
        raise ParseError("arrays or objects nested too deeply",
                         where=source) from None


def _dict(value, where):
    if not isinstance(value, dict):
        raise ParseError("expected an object", where)
    return value


def _obj(value, where, required=(), optional=()):
    _dict(value, where)
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


def _int(value, where):  # a chord end; Chord reads its 0/1 rule
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError("expected an integer", where)
    return value


def _read(reader, value, where, *args):
    """``reader(value, *args)``: the library reader of the value's kind
    holds the rule, and its refusal is raised here at the JSON path."""
    try:
        return reader(value, *args)
    except ChordbarsError as exc:
        raise ParseError(str(exc), where) from None


def _action(value, where, allow_inf=False):
    # only the text "inf" is infinite: JSON's 1e400 is a float, like 1.5
    return _read(as_action, value, where,
                 allow_inf and type(value) is not float)


_degree = partial(_read, as_degree)
_new_id = partial(_read, as_id)


# ---------------------------------------------------------------------------
# filtered complexes
# ---------------------------------------------------------------------------

def parse_complex(obj, where="complex"):
    obj = _obj(obj, where, required=("field", "window", "generators"),
               optional=("differential",))
    field = _read(Field.parse, obj["field"], where + ".field")
    win = _list(obj["window"], where + ".window")
    if len(win) != 2:
        raise ParseError("window must be [a, b]", where + ".window")
    a = _action(win[0], where + ".window[0]")
    b = _action(win[1], where + ".window[1]", allow_inf=True)
    gens = []
    for i, g in enumerate(_list(obj["generators"], where + ".generators")):
        gw = "%s.generators[%d]" % (where, i)
        g = _obj(g, gw, required=("id", "action", "degree"))
        gens.append((_new_id(g["id"], gw + ".id"),
                     _action(g["action"], gw + ".action"),
                     _degree(g["degree"], gw + ".degree")))
    diff = {}
    for gid, row in _dict(obj.get("differential", {}),
                          where + ".differential").items():
        rw = "%s.differential[%r]" % (where, gid)
        terms = {}
        for j, entry in enumerate(_list(row, rw)):
            ew = "%s[%d]" % (rw, j)
            entry = _obj(entry, ew, required=("id", "coeff"))
            tid = _str(entry["id"], ew + ".id")
            if tid in terms:
                raise ParseError("target %r repeated" % tid, ew + ".id")
            terms[tid] = _raw(entry["coeff"], ew + ".coeff", field)
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
    field = _read(Field.parse, obj["field"], where + ".field")
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
                      _degree(c["degree"], cw + ".degree"),
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
    for label, row in _dict(obj.get("differential", {}),
                            where + ".differential").items():
        rw = "%s.differential[%r]" % (where, label)
        terms = []
        for j, entry in enumerate(_list(row, rw)):
            ew = "%s[%d]" % (rw, j)
            entry = _obj(entry, ew, required=("coeff", "word"))
            word = [_str(x, "%s.word[%d]" % (ew, k))
                    for k, x in enumerate(_list(entry["word"], ew + ".word"))]
            terms.append((_raw(entry["coeff"], ew + ".coeff", field), word))
        diff[label] = terms
    return ChordDGA(field, chords, diff)


def serialize_dga(D):
    diff = {}
    for label in sorted(D.differential):
        elem = D.differential[label]
        diff[label] = [{"coeff": D.field.format(elem[w]), "word": list(w)}
                       for w in sorted(elem, key=lambda w: (len(w), w))]
    return {
        "field": D.field.tag,
        "chords": [{"label": c.label, "length": format_action(c.length),
                    "degree": c.degree, "component": c.component,
                    "kind": c.kind, "ends": list(c.ends)}
                   for c in D.chords],
        "differential": diff,
    }


def parse_augmentation(obj, field, where="augmentation"):
    return Augmentation(field, _scalar_map(obj, where, field, _raw))


# ---------------------------------------------------------------------------
# timelines
# ---------------------------------------------------------------------------

def _path_spec(value, where, times, allow_inf=False):
    """A rational constant (``allow_inf``: or inf) or a [[t, v], ...]
    polyline.  ``times`` maps each knot-time string read so far in the item
    to its value, so the item's paths read a time once and share it.  A
    knot's JSON path is formatted only if the knot is refused."""
    if not isinstance(value, list):
        return _action(value, where, allow_inf=allow_inf)
    pts = []
    for pair in value:
        if not isinstance(pair, list) or len(pair) != 2:
            pw = "%s[%d]" % (where, len(pts))
            _list(pair, pw)
            raise ParseError("expected [t, value]", pw)
        t, v = pair
        slot = 0
        try:
            if type(t) is not str:
                t = as_action(t)
            elif t in times:
                t = times[t]
            else:  # keyed by the string, then t becomes its value
                times[t] = t = as_action(t)
            slot = 1
            pts.append((t, as_action(v)))
        except ChordbarsError as exc:
            pw = "%s[%d][%d]" % (where, len(pts), slot)
            raise ParseError(str(exc), pw) from None
    return pts


def _polylines(specs):
    """``specs`` with each polyline made a path, its values not read again
    and its order not checked again if on the last polyline's knot times."""
    out, last = [], None
    for spec in specs:
        if type(spec) is list:
            times = tuple(map(itemgetter(0), spec))
            spec = PLPath._exact(spec, ordered=times == last)
            last = times
        out.append(spec)
    return out


def _raw(value, where, field):
    return _read(field.coerce, value, where)


def _scalar(value, where, field):
    """An event's scalar, read into ``field`` and kept as written, so the
    event serializes as it was given."""
    _raw(value, where, field)
    return value


def _scalar_map(obj, where, field, read=_scalar):
    return {key: read(v, "%s[%r]" % (where, key), field)
            for key, v in _dict(obj, where).items()}


def _scalar_map_json(values):
    return {gid: str(c) for gid, c in sorted(values.items())}


def _endpoint(value, where):
    """A birth endpoint [id, degree]; a wrong length is reported at the
    item's path."""
    pair = _list(value, where)
    if len(pair) != 2:
        raise ParseError("birth endpoints are [id, degree]",
                         where.rpartition(".")[0])
    return _new_id(pair[0], where + "[0]"), _degree(pair[1], where + "[1]")


def _field(key, attrs, parse, fmt=None, *default):
    """One JSON field of an event item: its key, the event attribute(s) it
    holds, how it parses (given the coefficient field) and formats, and its
    default if it is optional."""
    return (key, attrgetter(*attrs.split()), parse, fmt or (lambda v: v)) \
        + default


def _plain(parse):  # parse(value, where) of a slot that reads no scalar
    return lambda value, where, _: parse(value, where)


_REF = _plain(_str)  # an existing generator's id: the event checks it
_GID = _field("id", "gid", _REF)
_NEW_GID = _field("id", "gid", _plain(_new_id))
_DEGREE = _field("degree", "degree", _plain(_degree))

# every event item has a "type" and a "time"; this lists the rest, in the
# order of the class's constructor arguments
_EVENT_ITEMS = {
    "handle_slide": (HandleSlide, (
        _field("target", "target", _REF),
        _field("addend", "addend", _scalar_map, _scalar_map_json),
        _field("unit", "unit", _scalar, str, 1))),
    "birth": (Birth, (
        _field("x", "x_id x_degree", _plain(_endpoint), list),
        _field("y", "y_id y_degree", _plain(_endpoint), list),
        _field("common_action", "common_action", _plain(_action),
               format_action))),
    "death": (Death, (_field("x", "x_id", _REF), _field("y", "y_id", _REF))),
    "exit_below": (ExitBelow, (_GID,)),
    "exit_above": (ExitAbove, (_GID,)),
    "entry_below": (EntryBelow, (_NEW_GID, _DEGREE, _field(
        "couplings", "chain", _scalar_map, _scalar_map_json, {}))),
    "entry_above": (EntryAbove, (_NEW_GID, _DEGREE, _field(
        "boundary", "chain", _scalar_map, _scalar_map_json, {}))),
}


def parse_timeline_item(item, field, where):
    """One timeline item; an event's scalars are read into ``field``."""
    if not isinstance(item, dict) or "type" not in item:
        raise ParseError("expected an object with a \"type\" key", where)
    kind = item["type"]
    if kind == "drift":
        _obj(item, where, required=("type", "t0", "t1", "actions"),
             optional=("window_a", "window_b"))
        actions = _dict(item["actions"], where + ".actions")
        times = {}
        paths = {gid: _path_spec(p, "%s.actions[%r]" % (where, gid), times)
                 for gid, p in actions.items()}
        # t0 and t1 are read, then shared with the knots they equal
        t0 = times.get(item["t0"], _action(item["t0"], where + ".t0"))
        t1 = times.get(item["t1"], _action(item["t1"], where + ".t1"))
        wa = item.get("window_a")
        wb = item.get("window_b")
        wa = None if wa is None else _path_spec(wa, where + ".window_a", times)
        wb = None if wb is None else _path_spec(wb, where + ".window_b",
                                                times, allow_inf=True)
        if t0 < t1:
            # DriftSegment refuses t0 >= t1 before it builds a path; past
            # that, the read polylines become paths here, in its order
            *built, wa, wb = _polylines([*paths.values(), wa, wb])
            paths = dict(zip(paths, built))
        return DriftSegment(t0, t1, paths, wa, wb)
    if not isinstance(kind, str) or kind not in _EVENT_ITEMS:
        raise ParseError("unknown timeline item type %r" % (kind,),
                         where + ".type")
    cls, slots = _EVENT_ITEMS[kind]
    _obj(item, where, required=("type", "time") + tuple(
        f[0] for f in slots if len(f) == 4),
        optional=[f[0] for f in slots if len(f) == 5])
    return cls(_action(item["time"], where + ".time"),
               *(parse(item.get(key, *default), "%s.%s" % (where, key),
                       field)
                 for key, _get, parse, _fmt, *default in slots))


def parse_timeline(obj, where="timeline"):
    """A timeline file: {"initial": <complex>, "items": [...]}, returning
    (initial complex, ordered item list)."""
    obj = _obj(obj, where, required=("initial", "items"))
    initial = parse_complex(obj["initial"], where + ".initial")
    items = [parse_timeline_item(it, initial.field,
                                 "%s.items[%d]" % (where, i))
             for i, it in enumerate(_list(obj["items"], where + ".items"))]
    return initial, items


def _serialize_path(path, t0, t1):
    pts = path.points
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
    """CSV text with the stable column set (t, bar_id, start, end); no
    number, ``inf`` or ``b%03d`` id needs quoting, so ``str()`` writes each."""
    out = ["t,bar_id,start,end\n"]
    t_last, t_text = object(), None  # a sample's rows share its t
    try:
        for t, bar_id, start, end, _degree in rows:
            if t is not t_last:
                t_last, t_text = t, str(t)
            out.append("%s,%s,%s,%s\n" % (t_text, bar_id, start, end))
    except ValueError:  # str() of a value over the digit limit
        raise _unprintable() from None
    return "".join(out)


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


def parse_rank_array(obj, where):
    return [_read(as_rank, v, "%s[%d]" % (where, i))
            for i, v in enumerate(_list(obj, where))]


def dumps(obj):
    """Canonical deterministic JSON text (sorted keys, trailing newline)."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
