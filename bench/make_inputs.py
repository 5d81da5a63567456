"""Write the benchmark's pinned inputs and their expected outputs.

    python3 bench/make_inputs.py

Every input document is generated here once, from the seeds recorded
below, and stored under ``bench/inputs/``; the benchmark itself never
generates anything, so its set-up time does not depend on ``--seed`` and a
change to the library's random generators cannot change a workload.  The
``replay``, ``engines`` and ``chords`` documents come from the library's
seeded generators; the ``drift`` families are built by
:func:`drift_family` below, which only the benchmark owns.  The command
also records the sha256 of every operation's output (``expected.json``),
so any recorded copy of today's output can be made anew by running it.
"""

import gzip
import json
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from exact import Arith, kernel  # noqa: E402

# Seed bases: document i of replay, drift and engines uses
# random.Random(BASE + i); chords_docs walks its seeds from its base.
SEEDS = {"replay": 81_000, "drift": 82_000, "engines": 83_000,
         "chords": 84_000}
FIELD_TAGS = ("F2", "F5", "Q")
REPLAY_COUNT = 100
DRIFT_COUNT = 40
# (count, max_generators) blocks of random complexes, plus odd two-cluster
# complexes at the end
ENGINE_BLOCKS = ((48, 20), (24, 60), (12, 100))
ENGINE_CLUSTERS = 16
CHORD_RANDOM = 150

q = Fraction


def fmt(x):
    return "inf" if x == float("inf") else str(x)


def dumps(obj):
    # the library's canonical document text (chordbars.schemas.dumps)
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# drift families: many generators, strict edges, long multi-knot segments
# ---------------------------------------------------------------------------

def _initial_complex(rng, ar, n):
    acts = rng.sample([q(k, 4) for k in range(4, 8 * n)], n)
    degs = [rng.randrange(0, 3) for _ in range(n)]
    ids = ["g%02d" % i for i in range(n)]
    diff = {}
    done = []
    for i in sorted(range(n), key=lambda i: acts[i]):
        allowed = [j for j in done if degs[j] == degs[i] - 1]
        done.append(i)
        if not allowed or rng.random() < 0.3:
            continue
        # the new row must be a cycle: pick it from the kernel of the
        # boundary restricted to the allowed targets
        span = sorted({t for j in allowed for t in diff.get(ids[j], {})})
        M = [[diff.get(ids[j], {}).get(t, ar.zero) for j in allowed]
             for t in span]
        basis = kernel(M, len(allowed), ar)
        row = [ar.zero] * len(allowed)
        for vec in rng.sample(basis, min(len(basis), rng.randint(1, 2))):
            c = rng.choice([x for x in (ar.elements() if ar.char else
                                        [q(1), q(-1), q(2), q(1, 2)]) if x])
            row = [ar.add(x, ar.mul(c, y)) for x, y in zip(row, vec)]
        row = {ids[j]: c for j, c in zip(allowed, row) if c}
        if row:
            diff[ids[i]] = row
    return ({ids[i]: acts[i] for i in range(n)},
            {ids[i]: degs[i] for i in range(n)}, diff)


def _topological(degrees, diff):
    """Ids ordered so that every differential target precedes its source."""
    out, seen = [], set()

    def visit(g):
        if g in seen:
            return
        seen.add(g)
        for t in sorted(diff.get(g, {})):
            visit(t)
        out.append(g)

    for g in sorted(degrees):
        visit(g)
    return out


def _segment(rng, t0, knots, cur, home, degrees, diff, meet=None):
    """Paths on [t0, t0 + 1] through ``knots`` shared knot times.

    Between shared knots every path is linear, so an edge that decreases
    strictly at every knot decreases strictly throughout.  Knot values are
    pairwise distinct, so crossings fall strictly between knots.  ``meet``
    is a (x, y, value) triple forcing a dying pair together at the end.
    """
    step = q(1, 8)
    times = [t0 + q(k, knots) for k in range(knots + 1)]
    paths = {g: [(t0, cur[g])] for g in degrees}
    order = _topological(degrees, diff)
    for k in range(1, knots + 1):
        new = {}
        if meet is not None and k == knots:
            x, y, c = meet
            new[x] = new[y] = c
        used = set(new.values())
        for g in order:
            if g in new:
                continue
            low = max([new[t] for t in diff.get(g, {})] + [q(0)]) + step
            v = cur[g] + q(rng.randint(-10, 10), 8)
            v += (home[g] - v) / 4
            v = max(low, q(round(v * 8), 8))
            while v in used:
                v += step
            new[g] = v
            used.add(v)
        for g in degrees:
            paths[g].append((times[k], new[g]))
        cur = new
    return paths, cur


def drift_family(rng, tag, n):
    """A timeline document with n generators and one to three events."""
    ar = Arith.from_tag(tag)
    cur, degrees, diff = _initial_complex(rng, ar, n)
    home = dict(cur)
    initial = {"field": tag, "generators": [
        {"id": g, "action": fmt(cur[g]), "degree": degrees[g]}
        for g in sorted(cur, key=lambda g: (cur[g], g))],
        "differential": {s: [{"id": t, "coeff": fmt(c)}
                             for t, c in sorted(row.items())]
                         for s, row in sorted(diff.items())}}
    events = rng.choice([["slide"], ["birth", "death"],
                         ["slide", "birth", "death"]])
    items = []
    born = None
    t = q(0)
    for ev in events + [None]:
        meet = None
        if ev == "death":
            free = sorted(set(q(k, 8) for k in range(8, 64 * n))
                          - set(cur.values()))
            meet = (born[0], born[1],
                    rng.choice([v for v in free
                                if abs(v - home[born[0]]) < 3]))
        paths, cur = _segment(rng, t, rng.randint(3, 5), cur, home, degrees,
                              diff, meet)
        items.append({"type": "drift", "t0": fmt(t), "t1": fmt(t + 1),
                      "actions": {g: [[fmt(s), fmt(v)] for s, v in pts]
                                  for g, pts in sorted(paths.items())}})
        t += 1
        if ev == "slide":
            by_degree = {}
            for g in sorted(cur):
                by_degree.setdefault(degrees[g], []).append(g)
            group = sorted(rng.choice([v for v in by_degree.values()
                                       if len(v) >= 2]), key=lambda g: cur[g])
            lo = rng.choice(group[:-1])
            hi = rng.choice([g for g in group if cur[g] > cur[lo]])
            c = ar.one if ar.char == 2 else ar.value(rng.choice(["1", "2",
                                                                 "-1"]))
            items.append({"type": "handle_slide", "time": fmt(t),
                          "target": hi, "addend": {lo: fmt(c)}})
            _slide(ar, diff, hi, lo, c)
        elif ev == "birth":
            x, y = "nx", "ny"
            d = rng.randrange(0, 2)
            c = rng.choice(sorted(set(q(k, 8) for k in range(8, 16 * n))
                                  - set(cur.values())))
            items.append({"type": "birth", "time": fmt(t), "x": [x, d + 1],
                          "y": [y, d], "common_action": fmt(c)})
            degrees.update({x: d + 1, y: d})
            cur.update({x: c, y: c})
            home.update({x: c + 1, y: c - q(1, 2)})
            diff[x] = {y: ar.one}
            born = (x, y)
        elif ev == "death":
            items.append({"type": "death", "time": fmt(t), "x": born[0],
                          "y": born[1]})
            for g in born:
                degrees.pop(g)
                cur.pop(g)
                diff.pop(g, None)
    # a finite window top above every knot value, so top gaps are checked
    top = max(q(v) for it in items if it["type"] == "drift"
              for pts in it["actions"].values() for _, v in pts) + 2
    initial["window"] = ["0", fmt(top)]
    return dumps({"initial": initial, "items": items})


def _slide(ar, diff, target, addend, c):
    """Conjugate the differential by e_target -> e_target + c * e_addend."""
    row = dict(diff.get(target, {}))
    for t, d in diff.get(addend, {}).items():
        row[t] = ar.add(row.get(t, ar.zero), ar.mul(c, d))
    diff[target] = {t: v for t, v in row.items() if v}
    for s in list(diff):
        r = diff[s]
        if s != target and r.get(target):
            r[addend] = ar.add(r.get(addend, ar.zero),
                               ar.neg(ar.mul(r[target], c)))
            if not r[addend]:
                del r[addend]
    for s in [s for s, r in diff.items() if not r]:
        del diff[s]


# ---------------------------------------------------------------------------
# the other workloads, from the library's own generators
# ---------------------------------------------------------------------------

def replay_docs():
    from chordbars import Field, random_timeline, schemas
    docs = []
    for i in range(REPLAY_COUNT):
        rng = random.Random(SEEDS["replay"] + i)
        field = Field.parse(FIELD_TAGS[i % 3])
        initial, items = random_timeline(rng, field, max_generators=12,
                                         max_events=10)
        docs.append((schemas.dumps(schemas.serialize_timeline(initial,
                                                              items)), {}))
    return docs


def drift_docs():
    docs = []
    for i in range(DRIFT_COUNT):
        rng = random.Random(SEEDS["drift"] + i)
        docs.append((drift_family(rng, FIELD_TAGS[i % 3],
                                  rng.randint(12, 24)), {}))
    return docs


def engines_docs():
    from chordbars import Field, random_complex, schemas, two_cluster_complex
    docs = []
    i = 0
    for count, top in ENGINE_BLOCKS:
        for _ in range(count):
            rng = random.Random(SEEDS["engines"] + i)
            field = Field.parse(FIELD_TAGS[i % 3])
            cx = random_complex(rng, field, max_generators=top,
                                window=(0, 32))
            docs.append((schemas.dumps(schemas.serialize_complex(cx)), {}))
            i += 1
    for _ in range(ENGINE_CLUSTERS):
        rng = random.Random(SEEDS["engines"] + i)
        field = Field.parse(FIELD_TAGS[i % 3])
        gap = rng.choice([6, 8, q(17, 2)])
        cx = two_cluster_complex(rng, field, gap=gap,
                                 bottom_count=rng.choice([3, 5, 7]),
                                 top_count=rng.choice([3, 5]))
        docs.append((schemas.dumps(schemas.serialize_complex(cx)),
                     {"gap": fmt(q(gap))}))
        i += 1
    return docs


def _chord_doc(D, reach, windows, sigma, betti, oscillations):
    from chordbars import schemas
    doc = {"dga": schemas.serialize_dga(D), "reach": fmt(reach),
           "windows": [[fmt(a), fmt(b)] for a, b in windows],
           "sigma": [fmt(v) for v in sigma], "betti": list(betti),
           "oscillations": [fmt(v) for v in oscillations]}
    if D.field.char == 0:
        doc["candidates"] = ["0", "1", "-1"]
    return schemas.dumps(doc)


def _two_copy(rng, field):
    """A two-copy chord algebra whose mixed boundaries run through the
    augmented pure copies of one degree-0 base chord."""
    from chordbars import two_copy_template
    la = q(rng.randint(2, 6), 4)
    lb = la + q(rng.randint(1, 4), 4)
    sep = 10
    d_b = rng.choice([0, 1])
    coeff = (lambda: 1) if field.char == 2 else (
        lambda: rng.choice([1, 2, -1]))
    diff = {"q_a": {("p_a",): coeff(), ("a@0", "p_a"): coeff(),
                    ("p_a", "a@1"): coeff()}}
    if d_b == 0:
        diff["q_b"] = {("p_b",): coeff(), ("b@0", "p_b"): coeff()}
    return two_copy_template(field, sep, [("a", la, 0), ("b", lb, d_b)],
                             [("e", q(1, 8), -1)], diff)


def chords_docs():
    from chordbars import (INF, Field, find_augmentations,
                           random_two_component_dga, stabilized_unknot_shape,
                           validate_dga)
    from chordbars.errors import SearchBudgetExceeded
    docs = []
    seed = SEEDS["chords"]
    i = 0
    while len(docs) < CHORD_RANDOM:
        rng = random.Random(seed + i)
        i += 1
        field = Field.parse(FIELD_TAGS[len(docs) % 3])
        D = random_two_component_dga(rng, field)
        lengths = sorted(c.length for c in D.forward_mixed())
        lo, hi = lengths[0], lengths[-1]
        reach = hi - lo + 1
        try:
            find_augmentations(
                D, candidates=None if field.char else [0, 1, -1],
                budget=5000)
        except SearchBudgetExceeded:
            continue  # keep every operation inside the search budget
        windows = [(lo, lo + reach), ((lo + hi) / 2, (lo + hi) / 2 + reach),
                   (hi - reach / 2, hi + reach / 2)]
        windows = [(max(a, q(1, 8)), b) for a, b in windows]
        g = q(rng.randint(2, 24), 4)
        n = rng.randint(1, 3)
        sigma = [g] + [rng.choice([g + 1, INF])] * (n - 1) + [g] \
            if n > 1 else [g, g]
        betti = [rng.randint(0, 2) for _ in sigma]
        oscillations = sorted({q(rng.randint(1, 40), 8) for _ in range(3)})
        docs.append((_chord_doc(D, reach, windows, sigma, betti,
                                oscillations), {}))
    sphere = ([5, INF, 5], [1, 0, 1], [q(49, 10), 5])
    for k, tag in enumerate(FIELD_TAGS * 4):
        rng = random.Random(seed + 10_000 + k)
        field = Field.parse(tag)
        l1, l2 = q(rng.randint(1, 8), 4), q(rng.randint(1, 8), 4)
        D = stabilized_unknot_shape(field, l1, l2, max(l1, l2) + 2)
        for reach in (INF, min(l1, l2)):
            top = 8 if reach == INF else min(l1, l2)
            docs.append((_chord_doc(D, reach, [(q(1, 8), q(1, 8) + top)],
                                    *sphere),
                         {"stabilized": True,
                          "augmentations": reach != INF}))
    for k, tag in enumerate(FIELD_TAGS * 12):
        rng = random.Random(seed + 20_000 + k)
        D = _two_copy(rng, Field.parse(tag))
        if not validate_dga(D).ok:
            raise SystemExit("two-copy shape %d is not a valid algebra" % k)
        reach = 12
        windows = [(q(17, 2), q(41, 4)), (q(39, 4), 11), (9, 12)]
        docs.append((_chord_doc(D, reach, windows, *sphere), {}))
    return docs


BUILDERS = {"replay": replay_docs, "drift": drift_docs,
            "engines": engines_docs, "chords": chords_docs}


def main(names):
    import ops
    from checks import digest
    inputs = os.path.join(HERE, "inputs")
    os.makedirs(inputs, exist_ok=True)
    expected_path = os.path.join(inputs, "expected.json")
    expected = {}
    if os.path.exists(expected_path):
        with open(expected_path, encoding="utf-8") as fh:
            expected = json.load(fh)
    for name in names:
        docs = BUILDERS[name]()
        texts = [text for text, _ in docs]
        digests = [digest(ops.run(name, text).output) for text in texts]
        blob = json.dumps({"workload": name, "seed_base": SEEDS[name],
                           "docs": texts}).encode()
        with open(os.path.join(inputs, name + ".json.gz"), "wb") as fh:
            fh.write(gzip.compress(blob, mtime=0))
        expected[name] = {"digests": digests,
                          "meta": [meta for _, meta in docs]}
        print("%s: %d documents, %d bytes of text"
              % (name, len(texts), sum(len(t) for t in texts)))
    with open(expected_path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:] or sorted(BUILDERS))
