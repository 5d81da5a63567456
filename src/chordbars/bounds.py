"""Oscillation bookkeeping and the barcode-driven displacement bound.

Everything in here is plain exact arithmetic on piecewise-linear data: the
oscillation of a Hamiltonian-style envelope, the length drift a chord
accumulates when its endpoints ride the flow, and the counting bound that
turns a spectral-gap profile plus homology ranks into a minimum number of
long bars.  Exact rational mode is the default.  Floats are accepted here
only, as user data: a float profile sample or :func:`chord_drift` rate
coordinate is read exactly (a non-finite one is refused), and a profile
with a float sample carries a declared comparison tolerance.
"""

import math
from fractions import Fraction
from itertools import accumulate

from .complexes import as_action, as_reach
from .errors import (NonMonotoneTime, RatesExceedProfile, ValidationError)
from .piecewise import PLPath

_DEFAULT_TOLERANCE = Fraction(1, 10 ** 9)


def _read_float(x, what="rate coordinates"):
    """A finite float read exactly; any other value is left to as_action."""
    if not isinstance(x, float):
        return x
    if not math.isfinite(x):
        raise ValidationError("%s must be finite, got %r" % (what, x))
    return Fraction(x)


def _as_path(data):
    if isinstance(data, PLPath):
        return data
    return PLPath([(_read_float(t), _read_float(v)) for t, v in data])


class OscillationProfile:
    """Upper/lower envelopes (t, max, min) over [0, 1], piecewise-linear.

    Samples must start at t = 0, end at t = 1, strictly increase in t, and
    satisfy max ≥ min throughout.  If any coordinate arrives as a float the
    profile runs in float mode: every value is still read exactly, so the
    envelope paths hold ``Fraction``s, but inequality checks gain
    ``tolerance`` slack (1e-9).  Other coordinates are read as exact actions.
    """

    __slots__ = ("hi", "lo", "float_mode", "tolerance")

    def __init__(self, samples):
        rows = list(samples)
        if not rows:
            raise ValidationError("profile needs at least one sample")
        self.float_mode = any(isinstance(x, float) for row in rows for x in row)
        self.tolerance = _DEFAULT_TOLERANCE if self.float_mode else Fraction(0)
        times = []
        his = []
        los = []
        try:
            for t, hi, lo in rows:
                times.append(as_action(_read_float(t)))
                his.append(as_action(_read_float(hi)))
                los.append(as_action(_read_float(lo)))
        except (TypeError, ValueError, ValidationError):
            raise ValidationError("profile samples must be (t, max, min) "
                                  "triples of finite numbers") from None
        if times != sorted(set(times)):
            raise NonMonotoneTime("sample times must strictly increase")
        if times[0] != 0 or times[-1] != 1:
            raise NonMonotoneTime("profile must span [0, 1] exactly")
        for t, hi, lo in zip(times, his, los):
            if hi + self.tolerance < lo:
                raise ValidationError(
                    "max %s below min %s at t=%s" % (hi, lo, t))
        self.hi = PLPath(list(zip(times, his)))
        self.lo = PLPath(list(zip(times, los)))

    @classmethod
    def constant(cls, hi, lo):
        return cls([(0, hi, lo), (1, hi, lo)])

    def width(self):
        """The piecewise-linear envelope gap max − min."""
        return self.hi - self.lo

    def __repr__(self):
        return "OscillationProfile(%r .. %r%s)" % (
            self.hi, self.lo, ", float" if self.float_mode else "")


def constant_width_schedule(width):
    """Profile of constant envelope gap ``width``, centred at zero.

    This is the oscillation bookkeeping of the squeeze-to-a-point flow whose
    time-s restriction has oscillation exactly s·width: the envelope stays
    [−width/2, width/2] even as the underlying flow concentrates.
    """
    w = as_action(_read_float(width, "width"))
    if not w > 0:
        raise ValidationError("width must be positive")
    return OscillationProfile.constant(w / 2, -w / 2)


def oscillation(profile, t_end=1):
    """∫₀^{t_end} (max − min) dt, exact (trapezoid is exact on PL data)."""
    t = as_action(_read_float(t_end, "t_end"))
    if not 0 <= t <= 1:
        raise NonMonotoneTime("t_end must lie in [0, 1], got %s" % t)
    if t == 0:
        return Fraction(0)
    return profile.width().integral(0, t)


def chord_drift(profile, rate_end, rate_start, initial_length=0):
    """Length trajectory of a chord whose endpoints move at the given rates.

    ``rate_end``/``rate_start`` are piecewise-linear on [0, 1], given as
    PLPaths or (t, value) lists, and must stay inside the profile envelope
    pointwise, up to a float-mode profile's tolerance (RatesExceedProfile
    otherwise).  A float coordinate in a list is read exactly, as profile
    samples are; a non-finite one raises ValidationError.
    Returns (Δℓ, trajectory); the trajectory is reported as the
    piecewise-linear path through the exact cumulative values at the rate
    breakpoints (between breakpoints the true curve is quadratic; Δℓ and all
    breakpoint values are exact).  |Δℓ| ≤ oscillation(profile, 1) then holds
    with no tolerance in exact mode (a property the tests check).
    """
    re = _as_path(rate_end)
    rs = _as_path(rate_start)
    for r, name in ((re, "end"), (rs, "start")):
        if r.t_start != 0 or r.t_end != 1:
            raise ValidationError("%s rate must be defined on [0, 1]" % name)
        tol = profile.tolerance
        if (profile.hi - r).min_value() < -tol or \
                (r - profile.lo).min_value() < -tol:
            raise RatesExceedProfile(
                "%s rate leaves the profile envelope" % name)
    diff = re - rs
    l0 = as_action(initial_length)
    # one running trapezoid sum over the breakpoints
    steps = ((va + vb) * (b - a) / 2 for a, va, b, vb in diff.pieces())
    trajectory = PLPath(zip(diff.breakpoint_times(),
                            accumulate(steps, initial=l0)))
    return trajectory.end_value - l0, trajectory


class SigmaProfile:
    """Spectral-gap values indexed by degree 0..n; positive or infinite,
    palindromic (value at k equals value at n−k)."""

    __slots__ = ("values",)

    def __init__(self, values):
        vals = []
        for v in values:
            v = as_action(v, allow_inf=True)
            if not v > 0:
                raise ValidationError("gap values must be positive, got %s" % v)
            vals.append(v)
        if not vals:
            raise ValidationError("profile must cover degrees 0..n")
        for k in range(len(vals)):
            if vals[k] != vals[len(vals) - 1 - k]:
                raise ValidationError(
                    "gap profile must be palindromic: index %d is %s but "
                    "index %d is %s" % (k, vals[k],
                                        len(vals) - 1 - k,
                                        vals[len(vals) - 1 - k]))
        self.values = tuple(vals)

    def __getitem__(self, k):
        return self.values[k]

    def __len__(self):
        return len(self.values)


def as_rank(value):  # a bool is not an int here
    if type(value) is not int or value < 0:
        raise ValidationError("ranks must be non-negative integers")
    return value


class BettiProfile:
    """Homology ranks indexed by degree 0..n (non-negative integers)."""

    __slots__ = ("values",)

    def __init__(self, values):
        vals = [as_rank(v) for v in values]
        if not vals:
            raise ValidationError("profile must cover degrees 0..n")
        self.values = tuple(vals)

    def __getitem__(self, k):
        return self.values[k]

    def __len__(self):
        return len(self.values)


class BoundReport:
    """Result of the counting bound.

    ``ordering`` lists degrees by descending gap value (ties by ascending
    degree); ``i_star`` is the last position in that order still qualifying
    (None if none does); ``count`` sums the ranks over the qualifying prefix;
    ``binding_constraint`` names the tighter cap ("l" or "sigma") at the
    last qualifying position (at position 0 when nothing qualifies).  The
    geometric transversality hypothesis behind the bound cannot be checked
    from this data; ``transversality_assumed`` records it as an assumption.
    """

    __slots__ = ("count", "i_star", "ordering", "binding_constraint",
                 "transversality_assumed")

    def __init__(self, count, i_star, ordering, binding_constraint):
        self.count = count
        self.i_star = i_star
        self.ordering = list(ordering)
        self.binding_constraint = binding_constraint
        self.transversality_assumed = True

    def format_lines(self):
        yield "count: %d" % self.count
        yield "i_star: %s" % ("none" if self.i_star is None else self.i_star)
        yield "ordering: %s" % " ".join(str(k) for k in self.ordering)
        yield "binding: %s" % self.binding_constraint
        yield "hypothesis: displaced image transverse to the flow (assumed, not checked)"

    def __repr__(self):
        return "BoundReport(count=%d, i_star=%s, binding=%s)" % (
            self.count, self.i_star, self.binding_constraint)


def theorem_bound(sigma, betti, l, osc):
    """Minimum number of long bars forced by gaps, ranks and oscillation.

    Degrees are ranked by descending gap value; a position qualifies while
    osc < min(l, gap).  Since the gaps are sorted the qualifying set is a
    prefix; the bound is the sum of the ranks over it.
    """
    if not isinstance(sigma, SigmaProfile):
        sigma = SigmaProfile(sigma)
    if not isinstance(betti, BettiProfile):
        betti = BettiProfile(betti)
    if len(sigma) != len(betti):
        raise ValidationError(
            "profiles disagree on dimension: %d vs %d entries"
            % (len(sigma), len(betti)))
    l = as_reach(l)
    osc = as_action(osc)
    if osc < 0:
        raise ValidationError("oscillation cannot be negative")
    ordering = sorted(range(len(sigma)), key=lambda k: (-sigma[k], k))
    n = next((i for i, k in enumerate(ordering)
              if not (osc < l and osc < sigma[k])), len(ordering))
    i_star = n - 1 if n else None
    count = sum(betti[k] for k in ordering[:n])
    # the binding constraint lives where the count stops growing: the first
    # non-qualifying position if there is one, else the margin at the end
    edge = ordering[min(n, len(ordering) - 1)]
    binding = "l" if l <= sigma[edge] else "sigma"
    return BoundReport(count, i_star, ordering, binding)


def long_bar_witness(barcode, threshold):
    """Bars of length ≥ threshold (infinite bars always qualify)."""
    A = as_action(threshold)
    return [bar for bar in barcode.bars if bar.length >= A]
