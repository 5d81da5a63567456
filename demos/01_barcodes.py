"""Exact barcodes of filtered complexes, from two directions.

Builds a small complex over three different coefficient fields, computes
its barcode with the canonical-form engine and with the definitional
rank-counting engine, shows they agree, and round-trips the barcode
through its persistence count table.
"""

from fractions import Fraction

from chordbars import (F2, FP, INF, QQ, FilteredComplex, barcode_of,
                       barcode_diagram_lines, barcode_table_lines,
                       canonical_form, check_canonical_form, extract_table,
                       recover)

q = Fraction

# Two 0-cells appear at actions 0 and 1/2; two 1-cells at 1 and 2 kill
# classes in an order that depends only on actions, not on the field.
for field, row in [(F2, {"x1": 1, "x2": 1}),
                   (FP(5), {"x1": 2, "x2": 3}),
                   (QQ, {"x1": q(1, 2), "x2": -1})]:
    cx = FilteredComplex(field, (0, INF),
                         [("x1", 0, 0), ("x2", q(1, 2), 0),
                          ("y1", 1, 1), ("y2", 2, 1)],
                         {"y1": row, "y2": {"x1": 1}})
    B = barcode_of(cx, engine="both")  # raises if the engines disagree
    print("field %s:" % field.tag)
    for line in barcode_table_lines(B):
        print("  " + line)

# The canonical form itself: the reduction R = D V pairs each killer with
# the generator it cancels, and an action-preserving change of basis read
# off R and V (one valid choice, not a unique one) puts the differential in
# that killer/killed form; check_canonical_form verifies D G = G T.
cx = FilteredComplex(F2, (0, INF),
                     [("x1", 0, 0), ("x2", q(1, 2), 0),
                      ("y1", 1, 1), ("y2", 2, 1)],
                     {"y1": {"x1": 1, "x2": 1}, "y2": {"x1": 1}})
F = canonical_form(cx)
check_canonical_form(cx, F)  # raises EngineMismatch if the witness fails
print("\npairs (killer, killed):", sorted(F.pairs))
print("unpaired:", sorted(F.unpaired))

# A barcode is determined by countable data: its critical values and the
# table counting, per start, the bars still alive just past each critical
# value.
B = barcode_of(cx)
crit, table = extract_table(B)
print("\ncritical values:", crit)
for r in table:
    print("  ", r)
back = recover(crit, table)
print("recovered intervals:",
      sorted((bar.start, bar.end) for bar in back.bars))

print("\ndiagram:")
for line in barcode_diagram_lines(B, width=40):
    print("  " + line)
