"""From a chord algebra to a filtered complex, one window at a time.

A two-component chord algebra carries pure chords (both ends on the same
component) and mixed chords.  Fixing an augmentation on the pure part
linearizes the differential; only forward-mixed chords inside the action
window survive as generators.  The window gate refuses any window wider
than the augmentation's reach.
"""

from fractions import Fraction

from chordbars import (QQ, Augmentation, Chord, ChordDGA, barcode_of,
                       barcode_table_lines, find_augmentations,
                       partial_linearization, two_copy_template,
                       validate_dga)
from chordbars.errors import WindowTooWide
from chordbars.fields import FP

q = Fraction
F5 = FP(5)

D = ChordDGA(QQ, [Chord("p", 1, 0, (0, 0)),
                  Chord("m1", 1, 0, (0, 1)),
                  Chord("m2", q(5, 2), 1, (0, 1))],
             {"m2": {("p", "m1"): 1}})
print("chord algebra checks:")
for entry in validate_dga(D).entries:
    print("  %s %r: %s" % (entry.kind, entry.subject,
                           "ok" if entry.ok else entry.detail))

# With eps(p) = 1 the word p*m1 linearizes to m1 and the two mixed chords
# cancel; with eps = 0 the row is empty and both survive forever.
for eps, tag in [(Augmentation(QQ, {"p": 1}), "eps(p) = 1"),
                 (Augmentation(QQ), "eps = 0")]:
    cx = partial_linearization(D, eps, (q(1, 2), 3))
    print("\nlinearized barcode with %s:" % tag)
    for line in barcode_table_lines(barcode_of(cx)):
        print("  " + line)

try:
    partial_linearization(D, Augmentation(QQ, {"p": 1}), (0, 4), l=2)
except WindowTooWide as exc:
    print("\nwindow gate:", exc)

# The two-copy construction doubles a diagram at a controlled separation;
# its augmentation search is exhaustive over the finite field.
tc = two_copy_template(F5, 10, [("c", 1, 1)], [("e", q(1, 4), -1)],
                       {"e": {("p_c",): 1}})
print("\ntwo-copy chords:",
      sorted((c.label, str(c.length), c.degree) for c in tc.chords))
epss = find_augmentations(tc, budget=20000)
print("augmentations found:", len(epss))
cx = partial_linearization(tc, epss[0], (9, 12))
print("window [9, 12) barcode:")
for line in barcode_table_lines(barcode_of(cx)):
    print("  " + line)
