"""A one-parameter family of filtered complexes, replayed and audited.

The timeline drifts generator actions along piecewise-linear paths and
fires singular events: two handle slides (the second cancels the first
over F2), one death where a finite bar closes, and one birth injecting a
fresh cancelling pair.  Every barcode transition is checked against the
expected rule, the bar trajectories come out as vineyard rows, and a
speed audit bounds every slope against an oscillation rate.
"""

from fractions import Fraction

from chordbars import (F2, INF, Birth, Death, DriftSegment, FilteredComplex,
                       HandleSlide, check_transitions, drift_speed_audit,
                       simulate, vineyard_rows)

q = Fraction

initial = FilteredComplex(F2, (0, INF),
                          [("a", 1, 0), ("b", q(3, 2), 1), ("c", 2, 1)],
                          {"b": {"a": 1}})

items = [
    DriftSegment(0, q(1, 4), {"a": [(0, 1), (q(1, 4), q(9, 8))],
                              "b": q(3, 2), "c": 2}),
    HandleSlide(q(1, 4), "c", {"b": 1}),
    DriftSegment(q(1, 4), q(3, 8),
                 {"a": [(q(1, 4), q(9, 8)), (q(3, 8), q(5, 4))],
                  "b": q(3, 2), "c": 2}),
    HandleSlide(q(3, 8), "c", {"b": 1}),
    DriftSegment(q(3, 8), q(1, 2),
                 {"a": [(q(3, 8), q(5, 4)), (q(1, 2), q(3, 2))],
                  "b": q(3, 2), "c": 2}),
    Death(q(1, 2), "b", "a"),
    DriftSegment(q(1, 2), q(3, 4), {"c": 2}),
    Birth(q(3, 4), ("u", 1), ("v", 0), 3),
    DriftSegment(q(3, 4), 1, {"c": 2, "v": 3,
                              "u": [(q(3, 4), 3), (1, q(7, 2))]}),
]

trace = simulate(initial, items)
report = check_transitions(trace)
for entry in report.entries:
    status = "pass" if entry.ok else "FAIL"
    print("%s @ t=%s: %s (%s)" % (entry.kind, entry.at, status,
                                  entry.detail))
print("all transitions conform:", report.ok)

print("\nbar trajectories (t, bar, start, end, degree):")
for row in vineyard_rows(trace):
    print("  %s  %s  [%s, %s)  deg %d" % row)

# Every moving generator must stay strictly slower than the allowed rate;
# the fastest pieces here (a on [3/8, 1/2], u on [3/4, 1]) have slope 2.
audit = drift_speed_audit(items, 3)
print("\nspeed audit at rate 3: ok =", audit.ok)
tight = drift_speed_audit(items, 1)
print("speed audit at rate 1: ok =", tight.ok)
for flag in tight.failures():
    print("  flagged [%s]: %s" % (flag.kind, flag.detail))
