"""Oscillation bookkeeping and the barcode-driven displacement bound.

Everything in here is plain exact arithmetic on piecewise-linear data: the
oscillation of a Hamiltonian-style envelope, the length drift a chord
accumulates when its endpoints ride the flow, and the counting bound that
turns a spectral-gap profile plus homology ranks into a minimum number of
long bars.  Exact rational mode is the default; floating-point samples are
accepted for user data and carry a declared comparison tolerance.
"""

from fractions import Fraction

from .complexes import INF, as_action
from .errors import (NonMonotoneTime, RatesExceedProfile, ValidationError)
from .piecewise import PLPath

_DEFAULT_TOLERANCE = Fraction(1, 10 ** 9)


def _as_path(data):
    if isinstance(data, PLPath):
        return data
    return PLPath([(t, v) for t, v in data])


class OscillationProfile:
    """Upper/lower envelopes (t, max, min) over [0, 1], piecewise-linear.

    Samples must start at t = 0, end at t = 1, strictly increase in t, and
    satisfy max ≥ min throughout.  If any coordinate arrives as a float the
    profile runs in float mode: values are converted exactly, but inequality
    checks gain ``tolerance`` slack (1e-9).  Every coordinate must be a
    finite number.
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
                times.append(Fraction(t))
                his.append(Fraction(hi))
                los.append(Fraction(lo))
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
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
    w = Fraction(width)
    if not w > 0:
        raise ValidationError("width must be positive")
    return OscillationProfile.constant(w / 2, -w / 2)


def oscillation(profile, t_end=1):
    """∫₀^{t_end} (max − min) dt, exact (trapezoid is exact on PL data)."""
    t = Fraction(t_end)
    if not 0 <= t <= 1:
        raise NonMonotoneTime("t_end must lie in [0, 1], got %s" % t)
    if t == 0:
        return Fraction(0)
    return profile.width().integral(0, t)


def chord_drift(profile, rate_end, rate_start, initial_length=0):
    """Length trajectory of a chord whose endpoints move at the given rates.

    ``rate_end``/``rate_start`` are piecewise-linear on [0, 1] and must stay
    inside the profile envelope pointwise (RatesExceedProfile otherwise).
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
    points = []
    acc = l0
    prev_t = Fraction(0)
    for t in diff.breakpoint_times():
        acc = l0 + diff.integral(0, t)
        points.append((t, acc))
        prev_t = t
    assert prev_t == 1  # invariant: both rates were checked to end at t = 1
    trajectory = PLPath(points)
    return trajectory.end_value - l0, trajectory


class SigmaProfile:
    """Spectral-gap values indexed by degree 0..n; positive or infinite,
    palindromic (value at k equals value at n−k)."""

    __slots__ = ("values",)

    def __init__(self, values):
        vals = []
        for v in values:
            v = as_action(v, allow_inf=True)
            if v != INF and not v > 0:
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


class BettiProfile:
    """Homology ranks indexed by degree 0..n (non-negative integers)."""

    __slots__ = ("values",)

    def __init__(self, values):
        vals = []
        for v in values:
            iv = int(v)
            if iv != v or iv < 0:
                raise ValidationError("ranks must be non-negative integers")
            vals.append(iv)
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
    l = as_action(l, allow_inf=True)
    if l != INF and not l > 0:
        raise ValidationError("window length must be positive")
    osc = as_action(osc)
    if osc < 0:
        raise ValidationError("oscillation cannot be negative")

    def sort_key(k):
        v = sigma[k]
        return (0, Fraction(0), k) if v == INF else (1, -v, k)

    ordering = sorted(range(len(sigma)), key=sort_key)
    if not ordering:
        return BoundReport(0, None, ordering, "l")
    i_star = None
    stopped = None
    for i, k in enumerate(ordering):
        if osc < l and osc < sigma[k]:
            i_star = i
        else:
            stopped = i
            break
    count = 0 if i_star is None else sum(
        betti[ordering[j]] for j in range(i_star + 1))
    # the binding constraint lives where the count stops growing: the first
    # non-qualifying position if there is one, else the margin at the end
    edge = ordering[-1 if stopped is None else stopped]
    binding = "l" if l <= sigma[edge] else "sigma"
    return BoundReport(count, i_star, ordering, binding)


def long_bar_witness(barcode, threshold):
    """Bars of length ≥ threshold (infinite bars always qualify)."""
    A = as_action(threshold)
    return [bar for bar in barcode.bars if bar.length >= A]
