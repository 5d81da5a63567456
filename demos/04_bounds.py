"""Oscillation budgets, chord drift, and the long-bar counting bound.

An oscillation profile caps how fast endpoints may move; the integral of
its width is the total oscillation.  Chord lengths drift no more than
that budget.  The counting bound turns a gap profile and homology ranks
into a minimum number of long bars, and the two-cluster fixture shows the
parity mechanism that forces one bar across a gap.
"""

import random
from fractions import Fraction

from chordbars import (BettiProfile, INF, OscillationProfile,
                       SigmaProfile, barcode_of, chord_drift,
                       constant_width_schedule, long_bar_witness,
                       oscillation, theorem_bound, two_cluster_complex)
from chordbars.fields import FP

q = Fraction

# A schedule of constant width a has oscillation exactly s*a by time s.
sched = constant_width_schedule(q(5, 2))
print("constant-width schedule, width 5/2:")
for s in (q(1, 4), q(2, 3), 1):
    print("  oscillation by t=%s: %s" % (s, oscillation(sched, s)))

prof = OscillationProfile([(0, 2, 0), (q(1, 2), 4, -1), (1, 2, 0)])
print("\ntent profile total oscillation:", oscillation(prof, 1))
delta, traj = chord_drift(prof, prof.hi, prof.lo, initial_length=10)
print("saturating drift: delta = %s, length 10 -> %s"
      % (delta, traj.value(1)))

# The counting bound: a sphere-like profile with gap 5 keeps both of its
# classes long while the oscillation stays strictly below the gap.
rep = theorem_bound(SigmaProfile([5, INF, 5]), BettiProfile([1, 0, 1]),
                    INF, q(49, 10))
print("\nsphere-like profile at oscillation 49/10:")
for line in rep.format_lines():
    print("  " + line)
rep0 = theorem_bound([5, INF, 5], [1, 0, 1], INF, 5)
print("at oscillation exactly 5 the count drops to %d (strict inequality)"
      % rep0.count)

# Two disjoint circles: the reach of the augmentation is the binding
# constraint, not the gaps.
rep2 = theorem_bound(SigmaProfile([INF, INF]), BettiProfile([1, 1]),
                     1, q(9, 10))
print("two circles, reach 1, oscillation 9/10: count %d, binding %s"
      % (rep2.count, rep2.binding_constraint))

# Parity across a gap: odd clusters cannot cancel internally, so at least
# one bar must span the full cluster gap.
rng = random.Random(7)
cx = two_cluster_complex(rng, FP(5), gap=8, bottom_count=5, top_count=3)
B = barcode_of(cx, engine="both")
witness = long_bar_witness(B, 8)
print("\ntwo-cluster fixture (gap 8): witness bar %s" % (witness,))
