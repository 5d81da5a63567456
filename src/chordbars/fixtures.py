"""Named example inputs used by the demos, the CLI and the test-suite.

The shapes are parameterized by their lengths so tests can place chords
wherever a scenario needs them; all differentials are explicit input data.
The random generator builds two-component chord algebras whose square-zero
law holds by construction: chords are processed in increasing length and
each boundary is sampled from the exact kernel of the differential on the
span of admissible shorter words.
"""

import itertools
from fractions import Fraction

from . import linalg
from .complexes import INF, FilteredComplex, Generator, random_differential
from .dga import AlgebraElement, Chord, ChordDGA
from .errors import ValidationError


def standard_unknot_shape(field):
    """A single degree-1 pure chord of length 1 with vanishing boundary.

    The zero assignment is an augmentation, so every sub-level of the
    algebra admits one.
    """
    return ChordDGA(field, [Chord("c", 1, 1, (0, 0))], {})


def stabilized_unknot_shape(field, l1=1, l2=2, l0=4):
    """Two chords each bounding the unit, tied together in one degree up.

    Because eps(d(c1)) = eps(1) = 1 for any candidate eps, the full algebra
    admits no augmentation; cutting below min(l1, l2) removes both
    obstructions.  (The unit-bounding chords must sit in degree 1 for the
    boundary to drop degree by one.)
    """
    l1, l2, l0 = Fraction(l1), Fraction(l2), Fraction(l0)
    if not (0 < l1 and 0 < l2 and max(l1, l2) < l0):
        raise ValidationError("lengths must satisfy 0 < l1, l2 < l0")
    chords = [Chord("c1", l1, 1, (0, 0)),
              Chord("c2", l2, 1, (0, 0)),
              Chord("c0", l0, 2, (0, 0))]
    diff = {"c1": {(): 1},
            "c2": {(): 1},
            "c0": {("c1",): 1, ("c2",): -1}}
    return ChordDGA(field, chords, diff)


def two_copy_template(field, separation, base_chords, morse_chords=(),
                      differential=None):
    """Chord set of a component and its far pushoff.

    Each base chord ``(name, length, degree)`` contributes pure copies
    ``name@0`` / ``name@1`` on the two components and a forward-mixed pair:
    ``q_name`` of length separation + length (same degree) and ``p_name`` of
    length separation - length (dual degree ``-degree - 1``).  Extra mixed
    chords cluster near the separation itself via ``(name, offset, degree)``
    triples.  The differential is caller data; the template only fixes
    labels, lengths, degrees and components.
    """
    sep = Fraction(separation)
    base = [(str(n), Fraction(l), int(d)) for n, l, d in base_chords]
    morse = [(str(n), Fraction(off), int(d)) for n, off, d in morse_chords]
    if base:
        lengths = [l for _, l, _ in base]
        if not sep > 2 * max(lengths):
            raise ValidationError(
                "separation %s must exceed twice the longest chord" % sep)
        for name, off, _ in morse:
            if not abs(off) < min(lengths):
                raise ValidationError(
                    "offset of %r reaches into the side clusters" % name)
    elif not sep > 0:
        raise ValidationError("separation must be positive")
    chords = []
    for name, l, d in base:
        chords.append(Chord(name + "@0", l, d, (0, 0)))
        chords.append(Chord(name + "@1", l, d, (1, 1)))
        chords.append(Chord("q_" + name, sep + l, d, (0, 1)))
        chords.append(Chord("p_" + name, sep - l, -d - 1, (0, 1)))
    for name, off, d in morse:
        chords.append(Chord(name, sep + off, d, (0, 1)))
    return ChordDGA(field, chords, differential or {})


# ---------------------------------------------------------------------------
# two separated action clusters forcing a long bar
# ---------------------------------------------------------------------------

def two_cluster_complex(rng, field, gap, bottom_count=5, top_count=4):
    """Random valid complex whose generators sit in two action clusters
    separated by ``gap``.

    The bottom cluster lies inside [1, 5/4], the top inside [gap + 5/4,
    gap + 3/2], so any bar with one foot in each cluster — or one infinite
    foot — has length ≥ gap.  With an odd bottom count, in-cluster bars
    (which consume two bottom generators each) always leave one generator
    over, forcing at least one bar of length ≥ gap no matter which valid
    differential is sampled.
    """
    if bottom_count % 2 == 0:
        raise ValidationError("the parity argument needs an odd bottom count")
    gap = Fraction(gap)
    base, spread = 1, Fraction(1, 4)
    if not spread < gap:
        raise ValidationError("cluster geometry must satisfy 0 < spread < gap")

    def cluster_actions(count, lo):
        step = spread / (count + 1)
        ticks = [lo + step * (i + 1) for i in range(count)]
        rng.shuffle(ticks)
        return ticks

    gens = []
    for i, action in enumerate(cluster_actions(bottom_count, base)):
        gens.append(Generator("lo%02d" % i, action, rng.randint(0, 2)))
    top_lo = base + gap + spread
    for i, action in enumerate(cluster_actions(top_count, top_lo)):
        gens.append(Generator("hi%02d" % i, action, rng.randint(0, 3)))
    gens.sort(key=lambda g: g.sort_key)
    return FilteredComplex(field, (0, INF), gens,
                           random_differential(rng, field, gens, 0.85))


# ---------------------------------------------------------------------------
# random two-component algebras
# ---------------------------------------------------------------------------

def _admissible_words(D, chord):
    """Words eligible as boundary terms of ``chord``: degree one below,
    total length strictly below, and — for a mixed chord — containing
    exactly one shorter forward-mixed letter with pure letters on the
    matching components around it."""
    want_degree = chord.degree - 1
    budget = chord.length
    out = []
    if chord.kind == "pure":
        pool = [c for c in D.pure_chords(chord.component)
                if c.length < budget]
        for n in range(1, 4):
            for combo in itertools.product(pool, repeat=n):
                if sum(c.length for c in combo) >= budget:
                    continue
                if sum(c.degree for c in combo) != want_degree:
                    continue
                out.append(tuple(c.label for c in combo))
    else:
        mids = [c for c in D.forward_mixed() if c.length < budget]
        pool0 = D.pure_chords(0)
        pool1 = D.pure_chords(1)
        for mid in mids:
            rest = budget - mid.length
            for n0 in range(3):  # at most two pure letters around mid
                for left in itertools.product(pool0, repeat=n0):
                    llen = sum(c.length for c in left)
                    if llen >= rest:
                        continue
                    for n1 in range(3 - n0):
                        for right in itertools.product(pool1, repeat=n1):
                            if llen + sum(c.length for c in right) >= rest:
                                continue
                            word = tuple(c.label for c in left) + (mid.label,) \
                                + tuple(c.label for c in right)
                            if D.word_degree(word) == want_degree:
                                out.append(word)
    return sorted(set(out), key=lambda w: (len(w), w))


def _kernel_sample(rng, D, candidates):
    """A random element of the exact kernel of the differential on the span
    of the candidate words (possibly zero)."""
    field = D.field
    basis = linalg.kernel([D.diff_word(w).terms for w in candidates], field)
    if not basis or rng.random() < 0.15:
        return AlgebraElement.zero(field)
    picks = rng.sample(basis, k=min(len(basis), rng.randint(1, 2)))
    terms = {}
    for vec in picks:
        field.add_scaled(terms, dict(zip(candidates, vec)),
                         field.random_unit_raw(rng))
    return AlgebraElement(field, terms)


def random_two_component_dga(rng, field):
    """A valid two-component chord algebra with nontrivial boundaries: one
    to three pure chords per component, three or four mixed chords, each
    boundary drawn from at most 24 admissible words.

    No boundary ever contains the unit word, so the zero assignment is
    always an augmentation; richer ones can be found by exhaustive search.
    """
    n0 = rng.randint(1, 3)
    n1 = rng.randint(1, 3)
    nm = rng.randint(3, 4)
    grid = [Fraction(k, 4) for k in range(1, 40)]
    lengths = rng.sample(grid, n0 + n1 + nm)
    specs = []
    # pure degrees cluster at 0 and mixed degrees climb with length, so that
    # shorter chords routinely supply words of degree one below a longer one
    for i in range(n0):
        specs.append(("u%d" % i, lengths[i],
                      rng.choice((0, 0, 0, 1)), (0, 0)))
    for i in range(n1):
        specs.append(("v%d" % i, lengths[n0 + i],
                      rng.choice((0, 0, 0, 1)), (1, 1)))
    mixed_lengths = sorted(lengths[n0 + n1:])
    for i, l in enumerate(mixed_lengths):
        specs.append(("m%d" % i, l, i + rng.choice((-1, 0, 0)), (0, 1)))
    specs.sort(key=lambda s: s[1])
    chords = []
    rows = {}
    for name, length, degree, ends in specs:
        chord = Chord(name, length, degree, ends)
        state = ChordDGA(field, chords, rows)
        candidates = _admissible_words(state, chord)
        if len(candidates) > 24:
            candidates = rng.sample(candidates, 24)
            candidates.sort(key=lambda w: (len(w), w))
        elem = _kernel_sample(rng, state, candidates)
        chords.append(chord)
        if elem:
            rows[name] = elem
    return ChordDGA(field, chords, rows)
