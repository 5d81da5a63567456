"""Oscillation schedules, chord drift envelopes, and the persistence bound."""

import random
from fractions import Fraction

import pytest

from chordbars import (Bar, Barcode, BettiProfile, INF, OscillationProfile,
                       PLPath, SigmaProfile, barcode_of, chord_drift,
                       constant_width_schedule, long_bar_witness,
                       oscillation, theorem_bound, two_cluster_complex)
from chordbars.errors import (NonMonotoneTime, RatesExceedProfile,
                              ValidationError)
from chordbars.fields import FP, QQ

q = Fraction

_PROFILE = OscillationProfile([(0, 2, 0), (q(1, 2), 4, -1), (1, 2, 0)])


def test_oscillation_values():
    flat = OscillationProfile.constant(3, 3)
    assert oscillation(flat, 1) == 0
    sched = constant_width_schedule(q(5, 2))
    assert oscillation(sched, q(2, 3)) == q(5, 3)
    # width 2 -> 5 -> 2 piecewise linear, area 7/2 over the unit interval
    assert oscillation(_PROFILE, 1) == q(7, 2)
    assert oscillation(_PROFILE, q(1, 2)) == q(7, 4)


def test_oscillation_rejections():
    with pytest.raises(NonMonotoneTime):
        oscillation(_PROFILE, 2)
    with pytest.raises(ValidationError):
        OscillationProfile([(0, 1, 0), (1, -1, 0)])
    with pytest.raises(NonMonotoneTime):
        OscillationProfile([(0, 1, 0), (q(1, 2), 1, 0)])
    for bad in (float("inf"), float("-inf"), float("nan"), "inf", None):
        for rows in ([(0, bad, 0), (1, 1, 0)], [(0, 1, bad), (1, 1, 0)],
                     [(bad, 1, 0), (1, 1, 0)]):
            with pytest.raises(ValidationError):
                OscillationProfile(rows)


def test_chord_drift_saturates_the_envelope():
    delta, traj = chord_drift(_PROFILE, _PROFILE.hi, _PROFILE.lo,
                              initial_length=10)
    assert delta == q(7, 2)
    assert traj.value(0) == 10 and traj.value(1) == 10 + q(7, 2)
    delta0, traj0 = chord_drift(_PROFILE, _PROFILE.hi, _PROFILE.hi,
                                initial_length=4)
    assert delta0 == 0 and traj0.value(q(1, 3)) == 4
    with pytest.raises(RatesExceedProfile):
        chord_drift(_PROFILE, PLPath([(0, 5), (1, 5)]), _PROFILE.lo)


def test_chord_drift_random_rates_within_oscillation():
    rng = random.Random(3)
    cap = oscillation(_PROFILE, 1)
    for _ in range(200):
        times = sorted({q(0), q(1),
                        *(q(rng.randint(1, 9), 10)
                          for _ in range(rng.randint(0, 3)))})

        def rnd_rate():
            pts = []
            for t in times:
                hi = _PROFILE.hi.value(t)
                lo = _PROFILE.lo.value(t)
                pts.append((t, lo + (hi - lo) * q(rng.randint(0, 8), 8)))
            return PLPath(pts)

        d, _ = chord_drift(_PROFILE, rnd_rate(), rnd_rate())
        assert abs(d) <= cap


def test_long_bar_witness_threshold_is_inclusive():
    # an infinite bar, two of length exactly 5/2, one just below, one short
    long_bars = [Bar(7, INF, 0), Bar(1, q(7, 2), 0), Bar(0, q(5, 2), 1)]
    B = Barcode(long_bars + [Bar(q(1, 2), 3 - q(1, 10 ** 9), 1),
                             Bar(2, 3, 0)])
    assert long_bar_witness(B, "5/2") == list(Barcode(long_bars))
    assert long_bar_witness(B, 10) == [Bar(7, INF, 0)]


def test_float_mode_profile():
    pf = OscillationProfile([(0, 1.0, 0.0), (1, 1.0, 0.0)])
    assert pf.float_mode and pf.tolerance == q(1, 10 ** 9)
    d, _ = chord_drift(pf, PLPath([(0, 1.0), (1, 1.0)]),
                       PLPath([(0, 0), (1, 0)]))
    assert d == 1


def test_theorem_bound_sphere_like():
    rep = theorem_bound(SigmaProfile([5, INF, 5]), BettiProfile([1, 0, 1]),
                        INF, q(49, 10))
    assert (rep.count, rep.i_star) == (2, 2)
    assert rep.ordering == [1, 0, 2]
    assert rep.binding_constraint == "sigma"
    # the inequality is strict: at osc == 5 only the infinite-gap index
    # qualifies, and its rank is zero
    rep0 = theorem_bound([5, INF, 5], [1, 0, 1], INF, 5)
    assert (rep0.count, rep0.i_star) == (0, 0)
    assert rep0.binding_constraint == "sigma"
    repn = theorem_bound([5, INF, 5], [1, 0, 1], 5, 5)
    assert repn.count == 0 and repn.i_star is None
    assert repn.binding_constraint == "l"


def test_theorem_bound_reach_limited():
    rep1 = theorem_bound(SigmaProfile([INF, INF]), BettiProfile([1, 1]), 1,
                         q(9, 10))
    assert rep1.count == 2 and rep1.binding_constraint == "l"
    assert rep1.transversality_assumed
    assert list(rep1.format_lines()) == [
        "count: 2",
        "i_star: 1",
        "ordering: 0 1",
        "binding: l",
        "hypothesis: displaced image transverse to the flow (assumed, "
        "not checked)",
    ]
    rep2 = theorem_bound([INF, INF], [1, 1], 1, 1)
    assert rep2.count == 0 and rep2.binding_constraint == "l"


def test_theorem_bound_monotone_in_oscillation():
    prev = None
    for num in range(12):
        r = theorem_bound([3, INF, 3], [2, 1, 2], 4, q(num, 2))
        if prev is not None:
            assert r.count <= prev
        prev = r.count


def test_sigma_profile_palindrome():
    with pytest.raises(ValidationError):
        SigmaProfile([1, 2])


def test_two_cluster_long_bars():
    rng = random.Random(99)
    fields = [FP(2), FP(5), QQ]
    for i in range(30):
        field = fields[i % 3]
        cx = two_cluster_complex(rng, field, gap=8,
                                 bottom_count=rng.choice([3, 5, 7]),
                                 top_count=rng.randint(2, 6))
        B = barcode_of(cx, engine="both")
        assert long_bar_witness(B, 8), (i, B.bars)
