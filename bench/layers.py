"""Per-layer measurement for the traced run.

:class:`Spans` times the benchmark's own calls into the library's public
functions (the ``call`` argument of :mod:`ops`) in the traced run's first
round.  :class:`Hook` is a ``sys.setprofile`` hook that counts calls into
inner-layer public functions and times a few of them; it is installed
around each operation of the second round.  Neither touches the library's
code.
"""

import sys
import time
from collections import Counter
from fractions import Fraction

from chordbars import barcodes, complexes, dga, fields, linalg, piecewise

# per-layer metrics and their units, in the order of BENCHMARK.json
METRICS = [
    ("timelines.simulate_ms", "ms"), ("timelines.check_ms", "ms"),
    ("timelines.vineyard_ms", "ms"), ("timelines.samples", "count"),
    ("timelines.critical_times", "count"), ("timelines.crossings", "count"),
    ("timelines.segments", "count"), ("timelines.events", "count"),
    ("piecewise.value_calls", "count"), ("piecewise.paths_built", "count"),
    ("piecewise.zeros_calls", "count"), ("fields.fraction_ops", "count"),
    ("fields.field_ops", "count"), ("linalg.nullspace_calls", "count"),
    ("linalg.rank_adds", "count"), ("linalg.matmul_calls", "count"),
    ("complexes.built", "count"), ("complexes.build_ms", "ms"),
    ("barcodes.canonical_calls", "count"), ("barcodes.canonical_ms", "ms"),
    ("barcodes.definitional_ms", "ms"), ("barcodes.table_ms", "ms"),
    ("barcodes.bars", "count"), ("dga.validate_ms", "ms"),
    ("dga.search_ms", "ms"), ("dga.linearize_ms", "ms"),
    ("dga.assignments_tried", "count"), ("dga.augmentations_found", "count"),
    ("dga.hit_ratio", "ratio"), ("dga.linearized_generators", "count"),
    ("bounds.bound_ms", "ms"), ("bounds.long_bars", "count"),
    ("schemas.parse_ms", "ms"), ("schemas.render_ms", "ms"),
    ("schemas.bytes_in", "bytes"), ("schemas.bytes_out", "bytes"),
    ("bench.trace_overhead_s", "s"),
]


class Spans:
    """Total wall time per stage of the benchmark's public calls."""

    def __init__(self):
        self.ms = Counter()

    def __call__(self, stage, fn, *args, **kw):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            self.ms[stage] += (time.perf_counter() - t0) * 1e3


def _codes(*functions):
    return [f.__code__ for f in functions]


F = Fraction
COUNTED = {
    "piecewise.value_calls": _codes(piecewise.PLPath.value),
    "piecewise.paths_built": _codes(piecewise.PLPath.__init__),
    "piecewise.zeros_calls": _codes(piecewise.PLPath.zeros),
    # the forward/reverse operator closures carry every Fraction + - * /
    # // % divmod; the unary operators and powers have their own code
    "fields.fraction_ops": _codes(F.__add__, F.__radd__, F.__neg__,
                                  F.__pos__, F.__abs__, F.__pow__,
                                  F.__rpow__),
    "fields.field_ops": _codes(fields.Field.add, fields.Field.sub,
                               fields.Field.mul, fields.Field.div,
                               fields.Field.inv),
    "linalg.nullspace_calls": _codes(linalg.nullspace),
    "linalg.rank_adds": _codes(linalg.RankAccumulator.add),
    "linalg.matmul_calls": _codes(linalg.matmul),
    "complexes.built": _codes(complexes.FilteredComplex.__init__),
    "barcodes.canonical_calls": _codes(barcodes.canonical_form),
}
TIMED = {
    "complexes.build_ms": complexes.FilteredComplex.__init__.__code__,
    "barcodes.canonical_ms": barcodes.canonical_form.__code__,
    "barcodes.definitional_ms": barcodes.barcode_definitional.__code__,
}
_CHECK = dga.check_augmentation.__code__
_SEARCH = dga.find_augmentations.__code__


class Hook:
    """Profile hook counting calls by code object.

    ``dga.assignments_tried`` counts the ``check_augmentation`` calls made
    from inside ``find_augmentations``, one per candidate assignment.
    """

    def __init__(self):
        self.counts = Counter()
        self.ms = Counter()
        self._names = {}
        for name, codes in COUNTED.items():
            for code in codes:
                self._names[code] = name
        self._timed = {code: name for name, code in TIMED.items()}
        self._open = {}

    def __call__(self, frame, event, _arg):
        if event == "call":
            code = frame.f_code
            name = self._names.get(code)
            if name is not None:
                self.counts[name] += 1
            if code in self._timed:
                self._open[frame] = time.perf_counter()
            elif code is _CHECK and frame.f_back.f_code is _SEARCH:
                self.counts["dga.assignments_tried"] += 1
        elif event == "return" and frame in self._open:
            t0 = self._open.pop(frame)
            self.ms[self._timed[frame.f_code]] += \
                (time.perf_counter() - t0) * 1e3

    def __enter__(self):
        sys.setprofile(self)
        return self

    def __exit__(self, *_exc):
        sys.setprofile(None)


def output_counts(workload, text, result):
    """Counts read off one operation's input and output."""
    c = Counter()
    c["schemas.bytes_in"] = len(text.encode())
    c["schemas.bytes_out"] = len(result.output.encode())
    rich = result.rich
    if workload in ("replay", "drift"):
        trace = rich["trace"]
        c["timelines.samples"] = len(trace.samples)
        c["timelines.segments"] = len(trace.segments)
        c["timelines.events"] = len(trace.events)
        c["timelines.crossings"] = sum(len(st.crossings)
                                       for st in trace.segments)
        c["timelines.critical_times"] = sum(len(st.sample_indices) + 1
                                            for st in trace.segments)
        c["barcodes.bars"] = sum(len(s.barcode) for s in trace.samples)
    elif workload == "engines":
        c["barcodes.bars"] = len(rich["barcode"])
    else:
        c["dga.augmentations_found"] = len(rich["found"])
        for _eps, _window, cx, B, long_bars in rich["linearized"]:
            c["dga.linearized_generators"] += len(cx)
            c["barcodes.bars"] += len(B)
            c["bounds.long_bars"] += sum(len(x) for x in long_bars)
    return c
