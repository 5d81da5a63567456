"""Correctness checks and the benchmark's own oracles.

``check`` runs after every operation, outside its timed span: the output
digest must match ``inputs/expected.json`` and the method's properties must
hold.  ``oracle`` runs after each operation of a measured run's first
round, also outside the timed spans.  The oracles read the input documents
with ``json`` and do their arithmetic with :mod:`exact`; they share no code
with ``chordbars.linalg``, ``chordbars.barcodes`` or
``chordbars.piecewise``.
"""

import hashlib
import itertools
import json
import math
from collections import Counter
from fractions import Fraction

from exact import Arith, Span, kernel

INF = math.inf


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _num(text):
    return INF if text == "inf" else Fraction(text)


def _bars(B):
    return Counter((b.start, b.end, b.degree) for b in B.bars)


def endpoint_problems(generators, B):
    """Every generator must be an endpoint of exactly one bar: the starts
    and finite ends, with degrees, are the generators' actions."""
    want = Counter((g.action, g.degree) for g in generators)
    got = Counter((b.start, b.degree) for b in B.bars)
    got.update((b.end, b.degree + 1) for b in B.bars if b.end != INF)
    return [] if want == got else ["generators are not the bar endpoints"]


def _square_problems(cx, ar):
    for g in cx.generators:
        out = Counter()
        for mid, c in cx.differential_raw(g.id).items():
            for tgt, d in cx.differential_raw(mid).items():
                out[tgt] = ar.add(out.get(tgt, ar.zero), ar.mul(c, d))
        if any(out.values()):
            return ["linearized differential does not square to zero at %r"
                    % g.id]
    return []


def bound_count(sigma, betti, reach, osc):
    """The counting bound, read straight from its statement."""
    if not osc < reach:
        return 0
    return sum(b for s, b in zip(sigma, betti) if osc < s)


# ---------------------------------------------------------------------------
# per-operation checks
# ---------------------------------------------------------------------------

def check(workload, result, want_digest, meta, full):
    """Problems with one operation's result (an empty list when correct).

    ``full`` adds the property checks that walk every sample or window; the
    measured runs apply them in the first round and the digest after that.
    """
    problems = []
    if digest(result.output) != want_digest:
        problems.append("output differs from the recorded output")
    rich = result.rich
    if workload in ("replay", "drift"):
        if not rich["report"].ok:
            problems.append("check_transitions failed: %r"
                            % rich["report"].failures()[:1])
        if full:
            for s in rich["trace"].samples:
                ids = Counter(g for pair in s.pairs for g in pair
                              if g is not None)
                if set(ids.values()) - {1} or \
                        len(ids) != len(s.complex.generators):
                    problems.append("sample at t=%s pairs a generator "
                                    "twice or never" % s.t)
                problems += endpoint_problems(s.complex.generators, s.barcode)
    elif workload == "engines":
        B = rich["barcode"]
        intervals = Counter((b.start, b.end) for b in B.bars)
        if Counter((b.start, b.end) for b in rich["recovered"].bars) \
                != intervals:
            problems.append("recover(extract_table(B)) is not B")
        if full:
            problems += endpoint_problems(rich["complex"].generators, B)
        if "gap" in meta:
            gap = Fraction(meta["gap"])
            if not any(b.end == INF or b.end - b.start >= gap
                       for b in B.bars):
                problems.append("no bar crosses the two-cluster gap")
    else:
        problems += _chords_problems(result, meta, full)
    return problems


def _chords_problems(result, meta, full):
    rich = result.rich
    problems = []
    if not rich["report"].ok:
        problems.append("validate_dga failed")
    if "stabilized" in meta and bool(rich["found"]) != meta["augmentations"]:
        problems.append("stabilized unknot: %d augmentations below reach %s"
                        % (len(rich["found"]), rich["reach"]))
    reach, sigma, betti = rich["reach"], rich["sigma"], rich["betti"]
    for osc, rep in zip(rich["oscillations"], rich["bounds"]):
        if rep.count != bound_count(sigma, betti, reach, osc):
            problems.append("bound count %d at oscillation %s"
                            % (rep.count, osc))
    if sigma == [5, INF, 5] and betti == [1, 0, 1] and reach > 5:
        counts = {osc: rep.count
                  for osc, rep in zip(rich["oscillations"], rich["bounds"])}
        if counts != {Fraction(49, 10): 2, 5: 0}:
            problems.append("sphere-like profile gives counts %r" % counts)
    if full:
        ar = Arith(rich["dga"].field.char)
        for _eps, _window, cx, B, long_bars in rich["linearized"]:
            problems += _square_problems(cx, ar)
            problems += endpoint_problems(cx.generators, B)
            for osc, got in zip(rich["oscillations"], long_bars):
                want = [b for b in B.bars
                        if b.end == INF or b.end - b.start >= osc]
                if got != want:
                    problems.append("long bars at %s differ" % osc)
    return problems


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def sublevel_barcode(ar, generators, diff):
    """Barcode from sublevel ranks, by plain elimination.

    ``generators`` are (id, action, degree) triples and ``diff`` maps an id
    to {target id: coefficient}.  Per degree d, W(s, e) = dim(Z<=s + B<=e)
    - dim B<=e counts the classes born at or below s still alive past e;
    bars starting exactly at s and ending exactly at e are its mixed
    second differences.
    """
    bars = Counter()
    degrees = sorted({d for _, _, d in generators})
    for d in degrees:
        cols = sorted((a, g) for g, a, dd in generators if dd == d)
        rows = sorted((a, g) for g, a, dd in generators if dd == d - 1)
        ups = sorted((a, g) for g, a, dd in generators if dd == d + 1)
        index = {g: i for i, (_, g) in enumerate(cols)}
        row_index = {g: i for i, (_, g) in enumerate(rows)}
        n = len(cols)
        boundary = []
        for a, g in ups:
            v = [ar.zero] * n
            for t, c in diff.get(g, {}).items():
                v[index[t]] = c
            boundary.append((a, v))
        levels = sorted({a for a, _ in cols} | {a for a, _ in ups})
        starts = sorted({a for a, _ in cols})

        def alive(s):
            # W(s, e) for every level e, as a list over ``levels``
            m = sum(1 for a, _ in cols if a <= s)
            M = [[ar.zero] * m for _ in rows]
            for j, (_, g) in enumerate(cols[:m]):
                for t, c in diff.get(g, {}).items():
                    M[row_index[t]][j] = c
            span = Span(ar)
            for z in kernel(M, m, ar):
                span.add(z + [ar.zero] * (n - m))
            only_b = Span(ar)
            out, p = [], 0
            for e in levels:
                while p < len(boundary) and boundary[p][0] <= e:
                    span.add(boundary[p][1])
                    only_b.add(boundary[p][1])
                    p += 1
                out.append(len(span) - len(only_b))
            return out

        prev = [0] * len(levels)
        for s in starts:
            W = alive(s)
            A = [w - p for w, p in zip(W, prev)]
            first = levels.index(s)
            for j in range(first + 1, len(levels)):
                died = A[j - 1] - A[j]
                if died:
                    bars[(s, levels[j], d)] += died
            if A[-1]:
                bars[(s, INF, d)] += A[-1]
            prev = W
    return +bars


def _complex_of(cx):
    ar = Arith(cx.field.char)
    gens = [(g.id, g.action, g.degree) for g in cx.generators]
    return ar, gens, {g.id: cx.differential_raw(g.id) for g in cx.generators}


def _doc_complex(obj):
    ar = Arith.from_tag(obj["field"])
    gens = [(g["id"], _num(str(g["action"])), g["degree"])
            for g in obj["generators"]]
    diff = {s: {e["id"]: ar.value(str(e["coeff"])) for e in row}
            for s, row in obj.get("differential", {}).items()}
    return ar, gens, diff


def _path_points(spec, t0, t1):
    if isinstance(spec, list):
        return [(Fraction(t), Fraction(v)) for t, v in spec]
    return [(t0, Fraction(spec)), (t1, Fraction(spec))]


def _values_at(points, times):
    """A polyline's values at sorted times inside its domain."""
    out, k = [], 0
    for t in times:
        while points[k + 1][0] < t:
            k += 1
        (ta, va), (tb, vb) = points[k], points[k + 1]
        out.append(va + (vb - va) * (t - ta) / (tb - ta))
    return out


def crossing_times(item):
    """Pairwise crossing times of one drift item's action paths.

    Every path is linear between consecutive times of the union of all
    breakpoints, so each pairwise difference is too: a crossing is a zero
    at a union time or a sign change strictly inside a union interval.
    """
    t0, t1 = Fraction(item["t0"]), Fraction(item["t1"])
    paths = {g: _path_points(p, t0, t1) for g, p in item["actions"].items()}
    times = sorted({t for pts in paths.values() for t, _ in pts})
    values = {g: _values_at(pts, times) for g, pts in paths.items()}
    ids = sorted(paths)
    out = set()
    for i, g in enumerate(ids):
        for h in ids[i + 1:]:
            gaps = [x - y for x, y in zip(values[g], values[h])]
            for k, (da, db) in enumerate(zip(gaps, gaps[1:])):
                ta, tb = times[k], times[k + 1]
                if da == 0:
                    out.add(ta)
                if db == 0:
                    out.add(tb)
                if da and db and (da < 0) != (db < 0):
                    out.add(ta + (tb - ta) * da / (da - db))
    return sorted(out)


def _chord_table(doc, reach):
    """Chords below the reach and their boundaries, read from the text."""
    ar = Arith.from_tag(doc["dga"]["field"])
    chords = {c["label"]: c for c in doc["dga"]["chords"]
              if _num(str(c["length"])) < reach}
    domain = sorted(lab for lab, c in chords.items()
                    if c["degree"] == 0 and c["ends"][0] == c["ends"][1])
    rows = {lab: [(ar.value(str(t["coeff"])), t["word"])
                  for t in doc["dga"].get("differential", {}).get(lab, [])]
            for lab in chords}
    return ar, domain, rows


def _kills_boundaries(ar, rows, value):
    for terms in rows.values():
        total = ar.zero
        for coeff, word in terms:
            v = coeff
            for letter in word:
                v = ar.mul(v, value.get(letter, ar.zero))
            total = ar.add(total, v)
        if total:
            return False
    return True


def chords_oracle(text, result):
    """Evaluate eps(d c) word by word for every augmentation found, and
    count augmentations by brute force over the finite fields."""
    doc = json.loads(text)
    reach = _num(doc["reach"])
    ar, domain, rows = _chord_table(doc, reach)
    problems = []
    for eps in result.rich["found"]:
        if set(eps.values) - set(domain) or \
                not _kills_boundaries(ar, rows, eps.values):
            problems.append("found augmentation %r is not one" % eps)
    if ar.char:
        values = ar.elements()
    else:
        values = [ar.value(c) for c in doc.get("candidates", [])]
    count = sum(_kills_boundaries(ar, rows, dict(zip(domain, combo)))
                for combo in itertools.product(values, repeat=len(domain)))
    if count != len(result.rich["found"]):
        problems.append("brute force finds %d augmentations, the search %d"
                        % (count, len(result.rich["found"])))
    return problems


def oracle(workload, index, text, result):
    """Oracle problems for one document's result.

    The barcode oracle sees every fifth document (every seventh sample of
    a trace); the augmentation and crossing oracles see every document.
    """
    sampled = index % 5 == 0
    if workload in ("engines", "replay") and not sampled:
        return []
    if workload == "engines":
        ar, gens, diff = _doc_complex(json.loads(text))
        if sublevel_barcode(ar, gens, diff) != _bars(result.rich["barcode"]):
            return ["barcode differs from the sublevel-rank oracle"]
        return []
    if workload == "chords":
        return chords_oracle(text, result)
    problems = []
    trace = result.rich["trace"]
    if sampled:
        for s in trace.samples[::7]:
            if sublevel_barcode(*_complex_of(s.complex)) != _bars(s.barcode):
                problems.append("sample at t=%s differs from the "
                                "sublevel-rank oracle" % s.t)
    if workload == "drift":
        drifts = [it for it in json.loads(text)["items"]
                  if it["type"] == "drift"]
        for item, st in zip(drifts, trace.segments):
            if crossing_times(item) != list(st.crossings):
                problems.append("crossings of the segment at t=%s differ"
                                % item["t0"])
    return problems
