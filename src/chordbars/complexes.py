"""Filtered chain complexes with a half-open action window.

A complex is a finite basis of generators, each carrying an exact rational
action and an integer degree, plus a degree -1 differential that strictly
decreases action.  The window [a, b) bounds where generators may live; the
upper bound may be +infinity (``math.inf`` is used purely as an order/
serialization sentinel, it never enters field arithmetic).
"""

import math
from fractions import Fraction

from . import linalg
from .errors import (ActionIncrease, ActionOutsideWindow, DegreeMismatch,
                     DuplicateId, ForeignGenerator, NotSquareZero,
                     ValidationError)
from .fields import Field, _parse_rational

# an infinite window top, bar end, gap or reach: math.inf sorts above every
# Fraction and prints as "inf", so compare and print it directly
INF = math.inf


def boundary_raw(field, diff, chain):
    """Boundary of a raw sparse chain under a {source: {target: raw}} map."""
    out = {}
    for gid, c in chain.items():
        row = diff.get(gid)
        if row:
            field.add_scaled(out, row, c)
    return out


def as_action(value, allow_inf=False):
    """Coerce an exact action value (int, str, Fraction; optionally inf,
    also written "inf" in any case and spacing)."""
    if type(value) is Fraction:
        return value
    if allow_inf and (value == INF or type(value) is str
                      and value.strip().lower() == "inf"):
        return INF
    if isinstance(value, (float, bool)):
        raise ValidationError("action values must be exact rationals, got %r" % (value,))
    try:
        if type(value) is str:
            return _parse_rational(value)
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValidationError("cannot read action value %r" % (value,))


def as_reach(value):
    """Read an augmentation reach: a positive action or inf."""
    l = as_action(value, allow_inf=True)
    if not l > 0:
        raise ValidationError("augmentation reach must be positive, got %s"
                              % (l,))
    return l


def as_degree(value):
    """Check an integer degree; a bool or any other type is rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError("degree must be an integer, got %r" % (value,))
    return value


def as_id(value):
    """Check a generator id: a nonempty string."""
    if not isinstance(value, str) or not value:
        raise ValidationError("generator id must be a nonempty string, got %r"
                              % (value,))
    return value


class Generator:
    """A basis element: opaque id, exact action, integer degree."""

    __slots__ = ("id", "action", "degree")

    def __init__(self, id, action, degree):
        self.id = as_id(id)
        self.action = as_action(action)
        self.degree = as_degree(degree)

    @property
    def sort_key(self):
        return (self.action, self.id)

    def __repr__(self):
        return "Generator(%r, action=%s, degree=%d)" % (self.id, self.action, self.degree)

    def __eq__(self, other):
        return (isinstance(other, Generator)
                and (self.id, self.action, self.degree) == (other.id, other.action, other.degree))

    def __hash__(self):
        return hash((self.id, self.action, self.degree))


class FilteredComplex:
    """Immutable validated filtered complex over an exact field.

    ``differential`` maps a generator id to its boundary chain, a sparse
    {id: coefficient} map; coefficients (int, str or Fraction) are stored as
    raw field values and zeros are dropped.  Construction performs the
    full invariant check (square-zero, strict action decrease, degree -1,
    window containment) and raises a specific error with a witness.
    """

    __slots__ = ("field", "window", "generators", "_diff", "_by_id")

    def __init__(self, field, window, generators, differential):
        if not isinstance(field, Field):
            raise ValidationError("field must be a Field, got %r" % (field,))
        self.field = field
        a = as_action(window[0])
        b = as_action(window[1], allow_inf=True)
        if not a < b:
            raise ValidationError("empty window [%s, %s)" % (a, b))
        self.window = (a, b)

        gens = []
        for g in generators:
            gens.append(g if isinstance(g, Generator) else Generator(*g))
        gens.sort(key=lambda g: g.sort_key)
        by_id = {}
        for g in gens:
            if g.id in by_id:
                raise DuplicateId("generator id %r appears twice" % g.id)
            by_id[g.id] = g
            if not (a <= g.action and g.action < b):
                raise ActionOutsideWindow("generator %r has action %s outside [%s, %s)"
                                          % (g.id, g.action, a, b))
        self.generators = tuple(gens)
        self._by_id = by_id

        # normalize the differential to raw coefficients, dropping zeros
        diff = {}
        for src_id, chain in differential.items():
            src = by_id.get(src_id)
            if src is None:
                raise ForeignGenerator("differential source %r is not a generator" % (src_id,))
            row = {}
            for tgt_id, coeff in chain.items():
                tgt = by_id.get(tgt_id)
                if tgt is None:
                    raise ForeignGenerator("differential of %r hits unknown id %r"
                                           % (src_id, tgt_id))
                c = field.coerce(coeff)
                if not c:
                    continue
                if tgt.degree != src.degree - 1:
                    raise DegreeMismatch(
                        "differential of %r (degree %d) hits %r (degree %d); expected degree %d"
                        % (src_id, src.degree, tgt_id, tgt.degree, src.degree - 1))
                if not tgt.action < src.action:
                    raise ActionIncrease(
                        "differential of %r (action %s) hits %r (action %s); "
                        "strict decrease required" % (src_id, src.action, tgt_id, tgt.action))
                row[tgt_id] = c
            if row:
                diff[src_id] = row
        self._diff = diff

        # exact square-zero check
        for g in self.generators:
            sq = boundary_raw(field, diff, diff.get(g.id, {}))
            if sq:
                raise NotSquareZero("differential does not square to zero on %r" % g.id,
                                    witness=g.id)

    # basic queries --------------------------------------------------------------

    def generator(self, gid):
        g = self._by_id.get(gid)
        if g is None:
            raise ForeignGenerator("unknown generator id %r" % (gid,))
        return g

    def __len__(self):
        return len(self.generators)

    def degrees(self):
        return sorted({g.degree for g in self.generators})

    def differential_raw(self, gid):
        """Raw sparse boundary row of one generator ({} if zero)."""
        return dict(self._diff.get(gid, ()))

    def __repr__(self):
        a, b = self.window
        return ("FilteredComplex(%s, window=[%s, %s), %d generators)"
                % (self.field.tag, a, b, len(self.generators)))


def random_differential(rng, field, gens, p):
    """Seeded random differential on generators sorted by (action, id).

    In that order, each generator with probability ``p`` bounds a random
    combination of one to three kernel vectors of the already-built
    boundary restricted to strictly lower generators one degree down, so
    ∂² = 0 holds by construction (no rejection loop).
    """
    diff = {}
    for i, g in enumerate(gens):
        allowed = [h for h in gens[:i]
                   if h.degree == g.degree - 1 and h.action < g.action]
        if allowed and rng.random() < p:
            kernel = linalg.kernel([diff.get(h.id, {}) for h in allowed], field)
            if kernel:
                picks = rng.sample(kernel, k=min(len(kernel), rng.randint(1, 3)))
                row = field.random_combination(rng, [h.id for h in allowed],
                                               picks, field.random_unit_raw)
                if row:
                    diff[g.id] = row
    return diff


def random_complex(rng, field, max_generators=20, window=(0, 16)):
    """Seeded random valid complex: actions on a quarter-step grid, degrees
    0..3, differential from :func:`random_differential`, top edge +infinity
    with probability 0.3."""
    a = as_action(window[0])
    b_val = as_action(window[1])
    n = rng.randint(1, max_generators)
    step = Fraction(1, 4)
    slots = int((b_val - a) / step)
    gens = []
    for i in range(n):
        action = a + step * rng.randrange(slots)
        degree = rng.randint(0, 3)
        gens.append(Generator("g%02d" % i, action, degree))
    gens.sort(key=lambda g: g.sort_key)
    diff = random_differential(rng, field, gens, 0.8)
    top = INF if rng.random() < 0.3 else b_val
    return FilteredComplex(field, (a, top), gens, diff)
