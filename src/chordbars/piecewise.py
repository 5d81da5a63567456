"""Piecewise-linear paths with exact breakpoint arithmetic.

A :class:`PLPath` is a continuous piecewise-linear function given by its
breakpoints.  Every coordinate is read once as an exact action (int, str or
``Fraction``; a float or bool is refused; :mod:`chordbars.schemas` reads a
drift item's and hands them over), so evaluation, differences, integrals
and zeros are exact ``Fraction``s.  ``values_at``, on integer numerators
and denominators, is the one evaluator here: the speed audit, ``value``,
differences and integrals read it, and segment replay calls it only for a
path off its segment's grid.  That grid is the longest path's knot list
when every other path has it too (an item's paths share their knot-time
``Fraction``s) or only the segment's ends; else it is :func:`merge_times`.
Only ``zeros`` keeps the textbook expressions, as the tests' reference.
"""

from fractions import Fraction
from math import gcd
from operator import sub

from .complexes import as_action
from .errors import NonMonotoneTime, ValidationError


class PLPath:
    """Continuous piecewise-linear function on a closed interval."""

    __slots__ = ("points",)

    def __init__(self, points):
        # every coordinate is read as an exact action (int, str or
        # Fraction), so slopes, zeros and interpolation stay exact
        self.points = _checked(tuple((as_action(t), as_action(v))
                                     for t, v in points))

    @classmethod
    def _exact(cls, points, ordered=False):
        """A path on (t, v) pairs read already (``Fraction``s), checked
        unless ``ordered``."""
        self = object.__new__(cls)
        self.points = tuple(points) if ordered else _checked(tuple(points))
        return self

    @classmethod
    def constant(cls, value, t0, t1):
        return cls(((t0, value), (t1, value)))

    @property
    def t_start(self):
        return self.points[0][0]

    @property
    def t_end(self):
        return self.points[-1][0]

    @property
    def start_value(self):
        return self.points[0][1]

    @property
    def end_value(self):
        return self.points[-1][1]

    def breakpoint_times(self):
        return [t for t, _ in self.points]

    def __repr__(self):
        return "PLPath(%s)" % (list(self.points),)

    def __eq__(self, other):
        return isinstance(other, PLPath) and self.points == other.points

    def value(self, t):
        return self.values_at([t])[0]

    def values_at(self, ts):
        """Values at the ascending times ``ts``, in one sweep of the pieces.

        A breakpoint time gives the breakpoint's value.  Each time is read
        by ``as_integer_ratio()`` and located by integer
        cross-multiplication, each piece's line is computed once as ints
        and each interior value is one ``Fraction``.  A time outside the
        domain, or before the piece of an earlier time, raises
        :class:`ValidationError`.  Segment replay calls it only at its grid
        times, for a path that lacks some of them.
        """
        pts = self.points
        last = len(pts) - 1
        i = 1
        out = []
        rs = _ratios(pts)
        (a0, b0), (a1, b1) = rs[0][0], rs[1][0]
        line = None
        for t in ts:
            n, d = t.as_integer_ratio()
            while n * b1 > a1 * d and i < last:
                i += 1
                a0, b0 = a1, b1
                a1, b1 = rs[i][0]
                line = None
            if n * b1 == a1 * d:
                out.append(pts[i][1])
            elif a0 * d < n * b0 and n * b1 < a1 * d:
                if line is None:
                    line = _line(rs[i - 1], rs[i])
                A, B, D = line
                out.append(Fraction(A * n + B * d, D * d))
            elif n * b0 == a0 * d:
                out.append(pts[i - 1][1])
            else:
                raise self._out_of_order(t)
        return out

    def _out_of_order(self, t):
        return ValidationError(
            "time %s outside path domain [%s, %s] or out of order"
            % (t, self.t_start, self.t_end))

    def pieces(self):
        """Iterate (t0, v0, t1, v1) over the linear pieces."""
        for (t0, v0), (t1, v1) in zip(self.points, self.points[1:]):
            yield t0, v0, t1, v1

    # pointwise arithmetic ----------------------------------------------------

    def __sub__(self, other):
        """The pointwise difference of two paths on one interval."""
        if not isinstance(other, PLPath):
            return NotImplemented
        if self.t_start != other.t_start or self.t_end != other.t_end:
            raise ValidationError("paths live on different intervals")
        ts = merge_times(self.breakpoint_times(), other.breakpoint_times())
        return PLPath(zip(ts, map(sub, self.values_at(ts), other.values_at(ts))))

    def min_value(self):
        return min(v for _, v in self.points)

    def integral(self, t0=None, t1=None):
        """Exact trapezoid integral over [t0, t1] (defaults: whole domain)."""
        t0 = self.t_start if t0 is None else as_action(t0)
        t1 = self.t_end if t1 is None else as_action(t1)
        if t0 == t1:
            return Fraction(0)
        if not self.t_start <= t0 < t1 <= self.t_end:
            raise ValidationError("cannot integrate a path on [%s, %s] over "
                                  "[%s, %s]" % (self.t_start, self.t_end, t0, t1))
        ts = [t0, *(t for t, _ in self.points if t0 < t < t1), t1]
        vs = self.values_at(ts)
        total = 0
        for a, b, va, vb in zip(ts, ts[1:], vs, vs[1:]):
            total = total + (va + vb) * (b - a) / 2
        return total

    def zeros(self):
        """Exact zero set: (isolated roots, intervals where identically 0)."""
        roots = []
        flats = []
        for t0, v0, t1, v1 in self.pieces():
            if v0 == 0 and v1 == 0:
                flats.append((t0, t1))
            elif v0 == 0:
                roots.append(t0)
            elif v1 == 0:
                roots.append(t1)
            elif (v0 < 0) != (v1 < 0):
                roots.append(t0 + (t1 - t0) * v0 / (v0 - v1))
        # merge duplicates from shared breakpoints, keep sorted
        out = []
        for r in sorted(roots):
            if not out or out[-1] != r:
                out.append(r)
        return out, _merge_intervals(flats)


def _checked(pts):
    """``pts``, if two or more with strictly increasing times."""
    if len(pts) < 2:
        raise ValidationError("a path needs at least two breakpoints")
    for (t0, _), (t1, _) in zip(pts, pts[1:]):
        if not t0 < t1:
            raise NonMonotoneTime("breakpoint times must strictly increase "
                                  "(%s then %s)" % (t0, t1))
    return pts


def _ratios(points):
    """Each breakpoint as ((time numerator, denominator), (value ...))."""
    return [(t.as_integer_ratio(), v.as_integer_ratio()) for t, v in points]


def _line(lo, hi):
    """The piece from ``lo`` to ``hi`` (two :func:`_ratios` entries) as ints.

    Returns (A, B, D), with no common factor and D > 0: at t = n/d the
    piece's value is (A·n + B·d) / (D·d).
    """
    (a0, b0), (c0, d0) = lo
    (a1, b1), (c1, d1) = hi
    A = (c1 * d0 - c0 * d1) * b0 * b1
    B = c0 * d1 * a1 * b0 - c1 * d0 * a0 * b1
    D = d0 * d1 * (a1 * b0 - a0 * b1)
    g = gcd(A, B, D)
    return A // g, B // g, D // g


def _merge_intervals(ivs):
    merged = []
    for a, b in sorted(ivs):
        if merged and merged[-1][1] == a:
            merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    return merged


def merge_times(*lists):
    """Sorted union of breakpoint-time lists."""
    return sorted(set().union(*lists))
