"""Acceptance gate: the nine binding criteria, one verdict line each.

Every test computes its criterion end to end, then records a single
PASS/FAIL verdict through :func:`support.record`; the terminal summary
prints one line per criterion.  Tolerances (case counts, runtime budgets)
are part of the criteria and asserted, not advisory.
"""

import random
import time
from fractions import Fraction

from chordbars import (F2, FP, INF, QQ,
                       BettiProfile, Chord, ChordDGA, DriftSegment,
                       FilteredComplex, PLPath, SigmaProfile, barcode_of,
                       birth_morphism, chord_drift, check_transitions,
                       constant_width_schedule, drift_speed_audit,
                       extract_table,
                       handle_slide_morphism,
                       long_bar_witness, oscillation, partial_linearization,
                       random_complex, random_timeline,
                       random_two_component_dga, recover, simulate,
                       theorem_bound, two_cluster_complex, validate_dga)
from chordbars.barcodes import barcode_definitional
from chordbars.errors import WindowTooWide
from chordbars.linalg import matmul, zeros

from support import (an_augmentation, bars_as_tuples, bottleneck_distance,
                     dense_boundary, edge_free_family, identity, inverse,
                     linearized_bars, move_budgets, persisting_count,
                     rank_phi, record, slid_case, slide_windows)

q = Fraction
F5 = FP(5)
FIELDS = [F2, F5, QQ]


def test_closed_form_barcodes():
    warm = FilteredComplex(F2, (0, INF), [("w", 1, 0)], {})
    barcode_of(warm)
    single = FilteredComplex(F2, (0, INF), [("c", q(5, 2), 0)], {})
    t0 = time.perf_counter()
    bars1 = bars_as_tuples(barcode_of(single))
    dt1 = time.perf_counter() - t0
    pair = FilteredComplex(F2, (0, INF),
                           [("c0", 1, 0), ("c1", 2, 1)], {"c1": {"c0": 1}})
    t0 = time.perf_counter()
    bars2 = bars_as_tuples(barcode_of(pair))
    dt2 = time.perf_counter() - t0
    ok = (bars1 == [(q(5, 2), INF, 0)] and bars2 == [(1, 2, 0)]
          and dt1 < 0.001 and dt2 < 0.001)
    record("closed-form barcodes (single and cancelling pair, <1ms)", ok)


def test_engine_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    for field in FIELDS:
        for i in range(500):
            rng = random.Random(10_000 + 1000 * field.char + i)
            cx = random_complex(rng, field, max_generators=20)
            ca = bars_as_tuples(barcode_of(cx, engine="canonical"))
            de = bars_as_tuples(barcode_definitional(cx))
            if ca != de:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    record("engine equivalence (500 complexes per field, <60s)",
           mismatches == 0 and elapsed < 60)


def test_table_recovery_roundtrip():
    t0 = time.perf_counter()
    failures = 0
    for i in range(200):
        rng = random.Random(20_000 + i)
        B = barcode_of(random_complex(rng, FIELDS[i % 3]))
        crit, table = extract_table(B)
        got = sorted((b.start, b.end) for b in recover(crit, table).bars)
        want = sorted((b.start, b.end) for b in B.bars)
        if got != want:
            failures += 1
    elapsed = time.perf_counter() - t0
    record("barcode recovery from count tables (200 roundtrips, <5s)",
           failures == 0 and elapsed < 5)


def test_timeline_transition_rules():
    t0 = time.perf_counter()
    failures = 0
    for i in range(500):
        rng = random.Random(30_000 + i)
        field = FIELDS[i % 3]
        initial, items = random_timeline(rng, field,
                                         max_generators=12, max_events=10)
        report = check_transitions(simulate(initial, items))
        if not report.ok:
            failures += 1
    elapsed = time.perf_counter() - t0
    record("event transition rules (500 random timelines, <120s)",
           failures == 0 and elapsed < 120)


def test_long_bars_outlast_the_drift():
    # a random family up to its first exit or entry, so its events are
    # slides, births and deaths.  Every generator drifts slower than a rate
    # r that drift_speed_audit passes, so the move budget is at most
    # r·(t1 - t0); from the first sample to each later one the bottleneck
    # distance is at most the budget b so far, so a bar of length L > 2b at
    # the start leaves one of length at least L - 2b (stability)
    families = failures = compared = 0
    for i in range(300):
        rng = random.Random(80_000 + i)
        initial, items = random_timeline(rng, FIELDS[i % 3])
        items = edge_free_family(items)
        if items is None:
            continue
        trace = simulate(initial, items)
        segments = [it for it in items if isinstance(it, DriftSegment)]
        speed = max([abs((v1 - v0) / (t1 - t0)) for seg in segments
                     for p in seg.actions.values()
                     for (t0, v0), (t1, v1) in zip(p.points, p.points[1:])],
                    default=0)
        rate, span = 2 * speed, segments[-1].t1 - segments[0].t0
        budgets = move_budgets(trace)
        ok = drift_speed_audit(items, rate).ok and budgets[-1] <= rate * span
        first = trace.samples[0].barcode
        for sample, b in zip(trace.samples, budgets):
            later = sample.barcode
            long = {bar.length for bar in first
                    if not bar.is_infinite and bar.length > 2 * b}
            ok &= bottleneck_distance(first, later) <= b and all(
                len(long_bar_witness(later, L - 2 * b))
                >= len(long_bar_witness(first, L)) for L in long)
            compared += len(long)
        families += 1
        failures += not ok
    record("bars longer than twice the drift outlast slides, births and "
           "deaths (300 random families, stability)",
           failures == 0 and families >= 200 and compared >= 200)


def _conjugated(rng, cx):
    """Random action-preserving unit-triangular change of basis."""
    field = cx.field
    gens = list(cx.generators)  # already sorted by (action, id)
    n = len(gens)
    index = {g.id: i for i, g in enumerate(gens)}
    P = identity(n, field)
    for j in range(n):
        for i in range(j):
            if gens[i].degree == gens[j].degree and rng.random() < 0.4:
                P[i][j] = field.random_raw(rng)
    D = zeros(n, n, field)
    for j, g in enumerate(gens):
        for tgt, c in cx.differential_raw(g.id).items():
            D[index[tgt]][j] = c
    D2 = matmul(inverse(P, field), matmul(D, P, field), field)
    diff = {}
    for j, g in enumerate(gens):
        row = {gens[i].id: D2[i][j] for i in range(n) if D2[i][j]}
        if row:
            diff[g.id] = row
    return FilteredComplex(field, cx.window,
                           [(g.id, g.action, g.degree) for g in gens], diff)


def test_invariance_and_rank_identity():
    conj_failures = 0
    for i in range(200):
        rng = random.Random(40_000 + i)
        cx = random_complex(rng, FIELDS[i % 3], max_generators=12)
        if bars_as_tuples(barcode_of(cx)) != \
                bars_as_tuples(barcode_of(_conjugated(rng, cx))):
            conj_failures += 1
    rank_failures = 0
    for i in range(200):
        rng = random.Random(41_000 + i)
        cx = random_complex(rng, FIELDS[i % 3], max_generators=10)
        B = barcode_of(cx)
        levels = sorted({g.action for g in cx.generators})
        if not levels:
            continue
        probes = [levels[0] - 1] + [v + q(1, 8) for v in levels]
        pairs = [(c, s) for c in probes[:3] for s in probes if s >= c]
        for c, s in pairs[:6]:
            if persisting_count(B, s, start_below=c) != \
                    rank_phi(cx, c, s + q(1, 16)):
                rank_failures += 1
    record("barcode invariance under triangular conjugation (200 cases)",
           conj_failures == 0)
    record("sublevel rank identity against the elimination oracle "
           "(200 cases)", rank_failures == 0)


def _square_is_zero(cx):
    def of_degree(d):
        return [g for g in cx.generators if g.degree == d]

    for d in sorted(cx.degrees()):
        lower = dense_boundary(cx, of_degree(d - 1), of_degree(d))
        upper = dense_boundary(cx, of_degree(d), of_degree(d + 1))
        if not lower or not upper:
            continue
        prod = matmul(lower, upper, cx.field)
        if any(any(row) for row in prod):
            return False
    return True


def test_linearized_differentials_square_to_zero():
    square_failures = 0
    gate_failures = 0
    for i in range(200):
        rng = random.Random(50_000 + i)
        field = FIELDS[i % 3]
        D = random_two_component_dga(rng, field)
        if not validate_dga(D).ok:
            square_failures += 1
            continue
        eps = an_augmentation(rng, D)
        lengths = sorted(c.length for c in D.forward_mixed())
        lo, hi = lengths[0], lengths[-1]
        windows = [(lo, hi + 1), (q(1, 8), INF),
                   (lo + q(rng.randint(0, 4), 8), hi + q(1, 4))]
        for a, b in windows:
            if b != INF and not a < b:
                continue
            cx = partial_linearization(D, eps, (a, b))
            if not _square_is_zero(cx):
                square_failures += 1
        # any finite reach narrower than the window must trip the gate
        width = rng.randint(1, 3)
        try:
            partial_linearization(D, eps, (lo, lo + width),
                                  l=width - q(1, 2))
            gate_failures += 1
        except WindowTooWide:
            pass
    record("linearized differentials square to zero (200 random chord "
           "algebras)", square_failures == 0)
    record("window wider than the reach always trips the gate",
           gate_failures == 0)


def test_morphism_fixtures_are_chain_maps():
    chords = [Chord("x", 1, 1), Chord("b", 2, 0), Chord("a", q(5, 2), 1),
              Chord("y", 3, 1), Chord("c", 4, 2)]

    def slide_dga(extra=()):
        row = {("a",): 1, ("y",): -1}
        row.update(dict(extra))
        return ChordDGA(QQ, chords, {"y": {("b",): 1}, "a": {("b",): 1},
                                     "c": row})

    ok = True
    Dm = slide_dga()
    Dp = slide_dga([(("x",), 1)])
    phi = handle_slide_morphism(Dm, Dp, "a", ("x",), unit=1)
    ok &= phi.chain_map_defect() is None
    for c in chords:
        img = phi.images[c.label]
        ok &= Dp.element_length(img) <= c.length

    Dmid = slide_dga([(("x", "b"), 1)])
    phi1 = handle_slide_morphism(Dm, Dmid, "c", ("x", "y"), unit=1)
    phi2 = handle_slide_morphism(
        Dmid, slide_dga([(("x", "b"), 1), (("x",), 1)]), "a", ("x",), unit=1)
    comp = phi2.compose(phi1)
    ok &= comp.chain_map_defect() is None

    bchords = [Chord("x", 1, 0), Chord("b", 2, 0), Chord("a", q(5, 2), 1),
               Chord("c", 4, 1)]
    DpB = ChordDGA(QQ, bchords, {"a": {("b",): 1, ("x",): 1},
                                 "c": {("b",): 1, ("x",): -1}})
    DmB = ChordDGA(QQ, bchords, {"a": {("b",): 1},
                                 "c": {("b",): 2, ("x",): -2}})
    phiB = birth_morphism(DmB, DpB, "a", "b", ordering=["c"])
    ok &= phiB.chain_map_defect() is None
    slack = q(5, 2) - 2  # length of the dying pair's upper chord minus lower
    for c in bchords:
        img = phiB.images[c.label]
        ok &= DpB.element_length(img) <= c.length + slack

    kchords = [Chord("x", q(1, 2), 1), Chord("b", 2, 0),
               Chord("a", q(5, 2), 1), Chord("a1", 4, 2)]
    DpK = ChordDGA(QQ, kchords, {"a": {("b",): 1}, "a1": {("x", "b"): 1}})
    DmK = ChordDGA(QQ, kchords, {"a": {("b",): 1}})
    phiK = birth_morphism(DmK, DpK, "a", "b", ordering=["a1"])
    ok &= phiK.chain_map_defect() is None
    ok &= phiK.images["a1"] == {("a1",): 1, ("x", "a"): 1}
    for c in kchords:
        img = phiK.images[c.label]
        ok &= DpK.element_length(img) <= c.length + slack
    record("slide and birth morphisms are chain maps within the length "
           "slack", ok)


def test_slides_leave_linearized_barcodes_equal():
    # the paper's invariance, slide half: a slide has length slack 0, so on
    # random two-component algebras, one slide or two composed, the
    # linearized barcodes (ε pulled back along the slides) are equal in
    # every window; some windows' linearized differentials do change
    def rows(D, eps, window):
        cx = partial_linearization(D, eps, window)
        return {g.id: cx.differential_raw(g.id) for g in cx.generators}

    unequal = changed = cases = 0
    for i in range(300):
        case = slid_case(random.Random(70_000 + i), FIELDS[i % 3], 1 + i % 2)
        if case is None:
            continue
        Dm, eps_m, Dp, eps_p, _slides = case
        cases += 1
        for window in slide_windows(Dm):
            unequal += linearized_bars(Dm, eps_m, window) != \
                linearized_bars(Dp, eps_p, window)
            changed += rows(Dm, eps_m, window) != rows(Dp, eps_p, window)
    record("linearized barcodes are equal across handle slides (%d random "
           "chord algebras, single and composed slides)" % cases,
           unequal == 0 and changed > 0)


def test_displacement_arithmetic():
    ok = True
    rng = random.Random(60_000)
    for _ in range(20):
        a = q(rng.randint(1, 40), rng.randint(1, 8))
        s = q(rng.randint(0, 16), 16)
        ok &= oscillation(constant_width_schedule(a), s) == s * a

    prof_pts = [(0, 2, 0), (q(1, 2), 4, -1), (1, 2, 0)]
    from chordbars import OscillationProfile
    prof = OscillationProfile(prof_pts)
    cap = oscillation(prof, 1)
    for _ in range(200):
        times = sorted({q(0), q(1), *(q(rng.randint(1, 9), 10)
                                      for _ in range(rng.randint(0, 3)))})

        def rnd_rate():
            pts = []
            for t in times:
                hi, lo = prof.hi.value(t), prof.lo.value(t)
                pts.append((t, lo + (hi - lo) * q(rng.randint(0, 8), 8)))
            return PLPath(pts)

        delta, _ = chord_drift(prof, rnd_rate(), rnd_rate())
        ok &= abs(delta) <= cap

    # worked example: a sphere-like gap profile displaces only below the gap
    a_gap = 5
    sphere = theorem_bound(SigmaProfile([a_gap, INF, a_gap]),
                           BettiProfile([1, 0, 1]), INF, q(49, 10))
    ok &= sphere.count == 2
    ok &= theorem_bound([a_gap, INF, a_gap], [1, 0, 1], INF, a_gap).count == 0
    # worked example: two disjoint circles bounded by the shorter chord
    ok &= theorem_bound(SigmaProfile([INF, INF]), BettiProfile([1, 1]),
                        1, q(9, 10)).count == 2
    ok &= theorem_bound([INF, INF], [1, 1], 1, 1).count == 0
    record("oscillation schedule, drift inequality, and both worked bound "
           "examples", ok)


def test_two_cluster_long_bars():
    failures = 0
    for i in range(100):
        rng = random.Random(70_000 + i)
        field = FIELDS[i % 3]
        gap = rng.choice([6, 8, q(17, 2)])
        cx = two_cluster_complex(rng, field, gap=gap,
                                 bottom_count=rng.choice([3, 5, 7]),
                                 top_count=rng.choice([3, 5]))
        B = barcode_of(cx, engine="both")
        if not long_bar_witness(B, gap):
            failures += 1
    record("odd two-cluster complexes force a bar across the gap "
           "(100 fixtures)", failures == 0)
