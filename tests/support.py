"""Shared helpers for the test suite: independent oracles and verdict
bookkeeping for the acceptance run.

The oracles here deliberately take different routes than the library code
they check (plain Gaussian elimination on stacked spans, truncated formal
substitution) so that agreement is evidence, not tautology.
"""

import itertools
from fractions import Fraction

from chordbars import (INF, Augmentation, ChordDGA, barcode_of,
                       find_augmentations, handle_slide_morphism,
                       partial_linearization, random_two_component_dga)
from chordbars.errors import NotInvertible, SearchBudgetExceeded
from chordbars.linalg import rank, rref, zeros

VERDICTS = []


def record(name, ok):
    VERDICTS.append((name, bool(ok)))
    assert ok, "acceptance criterion failed: %s" % name


# ---------------------------------------------------------------------------
# sublevel homology rank oracle
# ---------------------------------------------------------------------------

def _degree_d_prefix(cx, d, cut):
    return [g for g in cx.generators if g.degree == d and g.action < cut]


def dense_boundary(cx, rows, cols):
    """Dense raw matrix of the differential from the generators ``cols`` to
    the generators ``rows``, read from ``differential_raw``."""
    index = {g.id: i for i, g in enumerate(rows)}
    M = zeros(len(rows), len(cols), cx.field)
    for j, g in enumerate(cols):
        for tgt, c in cx.differential_raw(g.id).items():
            M[index[tgt]][j] = c
    return M


def rank_phi(cx, c, s):
    """Rank of the inclusion-induced map H(C^{<c}) -> H(C^{<s}), c <= s.

    Per degree: rank(span(cycles below c) + span(boundaries below s))
    minus rank(span(boundaries below s)), all by exact elimination.
    """
    assert c <= s
    field = cx.field
    total = 0
    degrees = sorted({g.degree for g in cx.generators})
    for d in degrees:
        cols_s = _degree_d_prefix(cx, d, s)
        if not cols_s:
            continue
        index_s = {g.id: i for i, g in enumerate(cols_s)}
        # cycles of the c-sublevel, in s-sublevel coordinates
        cols_c = _degree_d_prefix(cx, d, c)
        cycles = []
        if cols_c:
            rows = [g for g in cx.generators if g.degree == d - 1]
            M = dense_boundary(cx, rows, cols_c)
            from chordbars.linalg import nullspace
            for v in nullspace(M, field, ncols=len(cols_c)):
                vec = [field.zero_raw] * len(cols_s)
                for j, q in enumerate(v):
                    vec[index_s[cols_c[j].id]] = q
                cycles.append(vec)
        # boundaries that exist in the s-sublevel
        bounds = []
        for g in cx.generators:
            if g.degree != d + 1 or not g.action < s:
                continue
            vec = [field.zero_raw] * len(cols_s)
            hit = False
            for tgt, q in cx.differential_raw(g.id).items():
                vec[index_s[tgt]] = q
                hit = True
            if hit:
                bounds.append(vec)
        if cycles:
            total += rank(cycles + bounds, field) - (
                rank(bounds, field) if bounds else 0)
    return total


# ---------------------------------------------------------------------------
# linearization oracle: truncated formal substitution
# ---------------------------------------------------------------------------

def linearized_rows_oracle(D, eps, window, l=INF):
    """Rows of the window linearization by substituting value + variable
    for every letter and keeping the part linear in the variables.

    Every letter contributes (constant, variable): an augmented pure letter
    contributes (eps(p), p-hat), everything else (0, letter-hat).  Products
    are truncated at linear order; variables of chords that are not
    forward-mixed or not in the window are discarded at the end.
    """
    field = D.field
    a, b = window
    kept = {m.label for m in D.forward_mixed()
            if a <= m.length and (b == INF or m.length < b)}
    rows = {}
    for label in kept:
        acc = {}
        for word, q in D.diff_of(label).items():
            const = field.one_raw
            lin = {}
            for lab in word:
                ch = D.chord(lab)
                if ch.kind == "pure" and (l == INF or ch.length < l):
                    lc = eps.value_raw(lab)
                else:
                    lc = field.zero_raw
                new_lin = {}
                for k, v in lin.items():
                    w = field.mul(v, lc)
                    if w:
                        new_lin[k] = w
                hat = field.mul(const, field.one_raw)
                if hat:
                    new_lin[lab] = field.add(new_lin.get(lab, field.zero_raw),
                                             hat)
                    if not new_lin[lab]:
                        del new_lin[lab]
                const = field.mul(const, lc)
                lin = new_lin
            for k, v in lin.items():
                w = field.mul(q, v)
                prev = acc.get(k, field.zero_raw)
                tot = field.add(prev, w)
                if tot:
                    acc[k] = tot
                else:
                    acc.pop(k, None)
        trimmed = {k: v for k, v in acc.items() if k in kept}
        if trimmed:
            rows[label] = trimmed
    return rows


# ---------------------------------------------------------------------------
# dense matrices for the conjugation check
# ---------------------------------------------------------------------------

def identity(n, field):
    M = zeros(n, n, field)
    for i in range(n):
        M[i][i] = field.one_raw
    return M


def inverse(M, field):
    """Gauss-Jordan on [M | I]."""
    n = len(M)
    assert all(len(row) == n for row in M), "inverse of a non-square matrix"
    aug = [row[:] + [field.one_raw if i == j else field.zero_raw for j in range(n)]
           for i, row in enumerate(M)]
    R, pivots = rref(aug, field)
    if pivots[:n] != list(range(n)):
        raise NotInvertible("matrix is singular")
    return [row[n:] for row in R]


# ---------------------------------------------------------------------------
# persisting counts and the count table by probes
# ---------------------------------------------------------------------------

def contains(bar, level):
    """Whether ``level`` lies in the half-open bar [start, end)."""
    return bar.start <= level < bar.end


def persisting_count(B, level, start_below=None):
    """Bars of ``B`` containing ``level``, optionally only those that start
    below ``start_below``."""
    return sum(1 for b in B.bars if contains(b, level)
               and (start_below is None or b.start < start_below))


def extract_table_by_probes(B):
    """The count table by its first definition: a probe sits halfway between
    consecutive critical values and one unit above the top, and entry
    [j][i] counts the bars starting at crit[j] that contain probe i."""
    crit = sorted({b.start for b in B.bars}
                  | {b.end for b in B.bars if not b.is_infinite})
    k = len(crit)
    probes = [(crit[i] + crit[i + 1]) / 2 for i in range(k - 1)]
    if k:
        probes.append(crit[k - 1] + 1)
    table = [[0] * k for _ in range(k)]
    for b in B.bars:
        j = crit.index(b.start)
        for i in range(j, k):
            if contains(b, probes[i]):
                table[j][i] += 1
    return crit, table


# ---------------------------------------------------------------------------
# bottleneck distance by brute force
# ---------------------------------------------------------------------------

def bottleneck_distance(A, B):
    """Bottleneck distance of two barcodes, degree by degree.

    Infinite bars pair in order of their starts, and a different count of
    them in one degree is ∞.  Finite bars take the least candidate cost at
    which a perfect matching exists, where any bar may instead match the
    diagonal at half its length.
    """
    worst = 0
    for d in {b.degree for b in A.bars} | {b.degree for b in B.bars}:
        finite, infinite = [], []
        for X in (A, B):
            bars = [b for b in X.bars if b.degree == d]
            finite.append([(b.start, b.end) for b in bars
                           if not b.is_infinite])
            infinite.append(sorted(b.start for b in bars if b.is_infinite))
        if len(infinite[0]) != len(infinite[1]):
            return INF
        worst = max([worst, _finite_bottleneck(*finite)]
                    + [abs(s - t) for s, t in zip(*infinite)])
    return worst


def _finite_bottleneck(xs, ys):
    # rows: xs, then a diagonal slot for each y; columns: ys, then a
    # diagonal slot for each x; two slots match at no cost
    n, m = len(xs), len(ys)
    size = n + m
    cost = [[INF] * size for _ in range(size)]
    for i, (s, e) in enumerate(xs):
        for j, (u, v) in enumerate(ys):
            cost[i][j] = max(abs(s - u), abs(e - v))
        cost[i][m + i] = (e - s) / 2
    for j, (u, v) in enumerate(ys):
        cost[n + j][j] = (v - u) / 2
        for i in range(n):
            cost[n + j][m + i] = 0
    candidates = sorted({c for row in cost for c in row} - {INF})
    lo, hi = 0, len(candidates) - 1
    if hi < 0:
        return 0
    while lo < hi:  # the least candidate with a perfect matching
        mid = (lo + hi) // 2
        if _perfect_matching(cost, candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return candidates[lo]


def _perfect_matching(cost, delta):
    """Whether the rows match the columns one to one along entries at most
    ``delta`` (augmenting paths)."""
    size = len(cost)
    owner = [None] * size

    def augment(i, seen):
        for j in range(size):
            if cost[i][j] <= delta and j not in seen:
                seen.add(j)
                if owner[j] is None or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(size))


def edge_free_family(items):
    """A family's items up to its first exit or entry, so its events are
    slides, births and deaths; None if that is an exit above, as up to it
    the leaver would end the family on the top."""
    cut = next((i for i, it in enumerate(items)
                if getattr(it, "edge", None) is not None), len(items))
    if cut < len(items) and items[cut].kind == "exit_above":
        return None
    return items[:cut]


def move_budgets(trace):
    """For each sample, the sum of the largest moves of one generator
    between consecutive stops from the first sample to it, the stops being
    each segment's t0, samples and t1 in turn.  Slides, births and deaths
    leave the barcode where it was (a bar born or dying has length 0), so
    on such a family this bounds the bottleneck distance of the first
    sample and that one (the stability theorem, segment by segment)."""

    def step(s1, s2):
        return max([abs(v - s2[g]) for g, v in s1.items()], default=0)

    budgets, total = [0], 0
    for seg in trace.segments:
        stops = [{g: p.start_value for g, p in seg.paths.items()},
                 *[trace.samples[i].actions for i in seg.sample_indices]]
        for s1, s2 in zip(stops, stops[1:]):
            total += step(s1, s2)
            budgets.append(total)
        total += step(stops[-1], {g: p.end_value
                                  for g, p in seg.paths.items()})
    return budgets + [total]


# ---------------------------------------------------------------------------
# segment crossings by brute force
# ---------------------------------------------------------------------------

def pairwise_crossings(paths, times):
    """Crossings of a segment's action paths ``paths[gid]``, pair by pair.

    ``times`` are the sorted breakpoints of every path and window edge of
    the segment, so each pair's difference, read exactly at them, is affine
    in between.  A zero at a time is a crossing there, two zeros in a row a
    coincidence, and a sign change between two times a crossing at the zero
    of the line through them.  Returns the first coincident pair in sorted
    id order (None if there is none), the critical times (``times`` and the
    crossings) and the crossing times, both sorted.
    """
    ids = sorted(paths)
    values = {gid: [paths[gid].value(t) for t in times] for gid in ids}
    first, crossings = None, set()
    for i, g1 in enumerate(ids):
        for g2 in ids[i + 1:]:
            d = [u - v for u, v in zip(values[g1], values[g2])]
            for k in range(len(times)):
                if d[k] == 0:
                    crossings.add(times[k])
                    if k + 1 < len(d) and d[k + 1] == 0 and first is None:
                        first = (g1, g2)
                elif k + 1 < len(d) and d[k] * d[k + 1] < 0:
                    crossings.add(times[k] + (times[k + 1] - times[k])
                                  * d[k] / (d[k] - d[k + 1]))
    return first, sorted(set(times) | crossings), sorted(crossings)


# ---------------------------------------------------------------------------
# slid chord algebras: the reference for the slide half of the invariance
# ---------------------------------------------------------------------------

def _substitute(field, images, chain):
    """A raw chain under the algebra map sending each letter in ``images``
    to its image and fixing every other letter."""
    out = {}
    for word, coeff in chain.items():
        acc = {(): coeff}
        for letter in word:
            img = images.get(letter, {(letter,): field.one_raw})
            nxt = {}
            for w1, c1 in acc.items():
                for w2, c2 in img.items():
                    field.add_scaled(nxt, {w1 + w2: field.mul(c1, c2)},
                                     field.one_raw)
            acc = nxt
        field.add_scaled(out, acc, field.one_raw)
    return out


def _leibniz(D, chain):
    """∂ of a raw chain from D's generator rows: each letter is replaced by
    its row, with the sign (-1)^(degree of the letters before it)."""
    field, out = D.field, {}
    for word, coeff in chain.items():
        for i, letter in enumerate(word):
            prefix = sum(D.chord(x).degree for x in word[:i])
            terms = {word[:i] + w + word[i + 1:]: x
                     for w, x in D.diff_of(letter).items()}
            field.add_scaled(out, terms,
                             field.neg(coeff) if prefix % 2 else coeff)
    return out


def slid_dga(D, slides):
    """The algebra after the handle slides ``[(a, word, unit), ...]``
    applied to D in turn, and the library's morphism to it from D (the
    slides' morphisms composed).  A slide is φ(a) = a + unit·word, fixing
    every other chord, and the new differential is ∂⁺ = φ∘∂⁻∘φ⁻¹ on the
    generators, with φ⁻¹(a) = a − unit·word (the word is not ``(a,)``)."""
    phi = None
    for a, word, unit in slides:
        field, word = D.field, tuple(word)
        u = field.coerce(unit)
        back = {a: {(a,): field.one_raw, word: field.neg(u)}}
        there = {a: {(a,): field.one_raw, word: u}}
        rows = {}
        for c in D.chords:
            row = _substitute(field, there, _leibniz(
                D, _substitute(field, back, {(c.label,): field.one_raw})))
            if row:
                rows[c.label] = row
        slid = ChordDGA(field, D.chords, rows)
        step = handle_slide_morphism(D, slid, a, word, unit)
        phi = step if phi is None else step.compose(phi)
        D = slid
    return D, phi


def slide_words(D, a):
    """The words chord ``a`` of a two-component algebra can slide over:
    of its degree, no longer than it, not ``(a,)``, and of its shape (one
    to three pure letters of a pure chord's component; one forward-mixed
    letter with at most two pure letters around it, those of component 0
    before it and of component 1 after it, for a forward-mixed chord)."""
    chord = D.chord(a)
    if chord.kind == "pure":
        pool = D.pure_chords(chord.component)
        shapes = [(pool,) * n for n in range(1, 4)]
    else:
        left, mid, right = D.pure_chords(0), D.forward_mixed(), D.pure_chords(1)
        shapes = [(left,) * n0 + (mid,) + (right,) * n1
                  for n0 in range(3) for n1 in range(3 - n0)]
    return sorted({tuple(c.label for c in letters)
                   for shape in shapes
                   for letters in itertools.product(*shape)
                   if sum(c.length for c in letters) <= chord.length
                   and sum(c.degree for c in letters) == chord.degree
                   and [c.label for c in letters] != [a]},
                  key=lambda w: (len(w), w))


def an_augmentation(rng, D):
    """A random augmentation of D from the search (over Q among 0 and ±1),
    or the zero one if the search finds none or runs out of budget."""
    field = D.field
    if field.char:
        try:
            epss = find_augmentations(D, budget=5000)
        except SearchBudgetExceeded:
            epss = [Augmentation(field)]
    else:
        epss = find_augmentations(D, candidates=[0, 1, -1], budget=5000)
    return rng.choice(epss) if epss else Augmentation(field)


def slid_case(rng, field, count):
    """A random two-component algebra D⁻ and ``count`` random slides of it,
    the slid algebra D⁺, an augmentation ε⁺ of D⁺ and its pullback
    ε⁻ = ε⁺∘Φ along the slides' morphism Φ (read off ``phi.images``), as
    (D⁻, ε⁻, D⁺, ε⁺, slides); None if no chord of D⁻ can slide.  A slide
    is drawn among the (chord, word) pairs whose word has a letter with a
    boundary after its first, if any: there ∂⁺ carries Koszul signs."""
    D = random_two_component_dga(rng, field)
    pairs = [(c.label, w) for c in D.chords for w in slide_words(D, c.label)]
    if not pairs:
        return None
    busy = [(a, w) for a, w in pairs if any(D.diff_of(x) for x in w[1:])]
    slides = [rng.choice(busy or pairs) + (field.random_unit_raw(rng),)
              for _ in range(count)]
    slid, phi = slid_dga(D, slides)
    eps = an_augmentation(rng, slid)
    pulled = Augmentation(field, {label: eps.of_element(img)
                                  for label, img in phi.images.items()})
    return D, pulled, slid, eps, slides


def slide_windows(D):
    """Windows over D's forward-mixed lengths: all of them, and two that
    cut the shortest or the longest off."""
    lengths = sorted(c.length for c in D.forward_mixed())
    lo, hi, eighth = lengths[0], lengths[-1], Fraction(1, 8)
    return [(a, b) for a, b in [(eighth, INF), (lo + eighth, hi + 1),
                                (eighth, hi)] if a < b]


def linearized_bars(D, eps, window):
    return bars_as_tuples(barcode_of(partial_linearization(D, eps, window)))


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------

def bars_as_tuples(B):
    return sorted((b.start, b.end, b.degree) for b in B.bars)


def half(x):
    return Fraction(x) / 2


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` for one test; the returned list gets each call's
    positional arguments."""
    calls, inner = [], getattr(owner, name)

    def wrapper(*args, **kw):
        calls.append(args)
        return inner(*args, **kw)

    monkeypatch.setattr(owner, name, wrapper)
    return calls
