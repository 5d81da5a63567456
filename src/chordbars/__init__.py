"""chordbars: exact filtered complexes, barcodes, chord algebras, bounds.

Everything is exact-arithmetic (F2, F_p, Q); barcodes come with two
independent engines that are cross-checked, one-parameter families are
simulated and audited against the expected bifurcation rules, and the
displacement layer turns length/homology profiles into lower bounds.
"""

from . import errors
from .errors import CheckReport, ChordbarsError, ParseError, ValidationError
from .fields import F2, FP, QQ, Field
from .complexes import INF, FilteredComplex, Generator, random_complex
from .barcodes import (Bar, Barcode, BarannikovForm, barcode_definitional,
                       barcode_diagram_lines, barcode_from_canonical,
                       barcode_of, barcode_table_lines, canonical_form,
                       check_canonical_form, extract_table, format_action,
                       recover)
from .piecewise import PLPath
from .timelines import (Birth, Death, DriftSegment, EntryAbove, EntryBelow,
                        ExitAbove, ExitBelow, FamilyTrace, HandleSlide,
                        check_transitions, drift_speed_audit,
                        random_timeline, simulate, vineyard_rows)
from .dga import (Augmentation, Chord, ChordDGA, DGAMorphism, birth_morphism,
                  check_augmentation, find_augmentations,
                  handle_slide_morphism, partial_linearization, sub_dga,
                  validate_dga)
from .fixtures import (random_two_component_dga, stabilized_unknot_shape,
                       standard_unknot_shape, two_cluster_complex,
                       two_copy_template)
from .bounds import (BettiProfile, BoundReport, OscillationProfile,
                     SigmaProfile, chord_drift, constant_width_schedule,
                     long_bar_witness, oscillation, theorem_bound)

__all__ = [
    "errors", "ChordbarsError", "ParseError", "ValidationError",
    "F2", "FP", "QQ", "Field",
    "INF", "FilteredComplex", "Generator", "random_complex",
    "Bar", "Barcode", "BarannikovForm", "canonical_form",
    "check_canonical_form", "barcode_from_canonical", "barcode_definitional",
    "barcode_of", "barcode_table_lines", "barcode_diagram_lines", "format_action",
    "extract_table", "recover",
    "PLPath",
    "DriftSegment", "HandleSlide", "Birth", "Death", "ExitBelow",
    "ExitAbove", "EntryBelow", "EntryAbove", "FamilyTrace",
    "CheckReport", "simulate", "check_transitions",
    "drift_speed_audit", "random_timeline", "vineyard_rows",
    "Augmentation", "Chord", "ChordDGA", "DGAMorphism",
    "validate_dga", "check_augmentation", "find_augmentations", "sub_dga",
    "handle_slide_morphism", "birth_morphism", "partial_linearization",
    "standard_unknot_shape", "stabilized_unknot_shape", "two_copy_template",
    "two_cluster_complex", "random_two_component_dga",
    "OscillationProfile", "SigmaProfile", "BettiProfile", "BoundReport",
    "constant_width_schedule", "oscillation", "chord_drift",
    "theorem_bound", "long_bar_witness",
]

__version__ = "0.1.0"
