"""The four benchmark operations.

Each operation starts from one input document's text and calls the
library's public functions in the order the matching ``chordbars`` command
does.  ``call(stage, fn, *args)`` runs one public call; the traced run
passes a timer there, the measured runs pass :func:`direct`.
"""

from chordbars import (barcode_of, check_transitions, extract_table,
                       find_augmentations, long_bar_witness,
                       partial_linearization, recover, schemas, simulate,
                       sub_dga, theorem_bound, validate_dga, vineyard_rows)

# stage names, shared with the traced run's span table
PARSE, RENDER = "schemas.parse_ms", "schemas.render_ms"
BARCODE = "barcodes.barcode_of_ms"
SEARCH_BUDGET = 5000


def direct(_stage, fn, *args, **kw):
    return fn(*args, **kw)


class Result:
    """An operation's output text plus the objects the checks inspect."""

    __slots__ = ("output", "rich")

    def __init__(self, output, **rich):
        self.output = output
        self.rich = rich


def replay(text, call=direct):
    """``chordbars simulate FILE --vineyard CSV``."""
    doc = call(PARSE, schemas.loads, text)
    initial, items = call(PARSE, schemas.parse_timeline, doc)
    trace = call("timelines.simulate_ms", simulate, initial, items)
    report = call("timelines.check_ms", check_transitions, trace)
    rows = call("timelines.vineyard_ms", vineyard_rows, trace)
    csv = call(RENDER, schemas.vineyard_csv, rows)
    summary = "checks: %d run, %d failed\n" % (len(report.entries),
                                              len(report.failures()))
    return Result(summary + csv, trace=trace, report=report, rows=rows)


def engines(text, call=direct):
    """``chordbars barcode FILE --engine both --format structured`` plus the
    count-table round trip."""
    doc = call(PARSE, schemas.loads, text)
    cx = call(PARSE, schemas.parse_complex, doc)
    B = call(BARCODE, barcode_of, cx, engine="both")
    crit, table = call("barcodes.table_ms", extract_table, B)
    back = call("barcodes.table_ms", recover, crit, table)
    out = call(RENDER, schemas.dumps, schemas.barcode_json(B))
    return Result(out, complex=cx, barcode=B, recovered=back)


def chords(text, call=direct):
    """``chordbars validate`` → augmentation search below the reach →
    ``chordbars linearize`` over each window → ``chordbars bound``."""
    doc = call(PARSE, schemas.loads, text)
    D = call(PARSE, schemas.parse_dga, doc["dga"])
    reach = schemas.parse_rational_array([doc["reach"]], "reach",
                                         allow_inf=True)[0]
    windows = [schemas.parse_rational_array(w, "windows", allow_inf=True)
               for w in doc["windows"]]
    sigma = schemas.parse_rational_array(doc["sigma"], "sigma",
                                         allow_inf=True)
    oscillations = schemas.parse_rational_array(doc["oscillations"],
                                                "oscillations")
    report = call("dga.validate_ms", validate_dga, D)
    sub = call("dga.search_ms", sub_dga, D, reach)
    found = call("dga.search_ms", find_augmentations, sub,
                 candidates=doc.get("candidates"), budget=SEARCH_BUDGET)
    used = found[:1] + found[-1:] if len(found) > 1 else found
    lines = ["augmentations: %d" % len(found)]
    linearized = []
    for eps in used:
        for a, b in windows:
            cx = call("dga.linearize_ms", partial_linearization, D, eps,
                      (a, b), l=reach)
            B = call(BARCODE, barcode_of, cx)
            lines.append(call(RENDER, schemas.dumps, schemas.barcode_json(B)))
            long_bars = [call("bounds.bound_ms", long_bar_witness, B, osc)
                         for osc in oscillations]
            linearized.append((eps, (a, b), cx, B, long_bars))
    bounds = []
    for osc in oscillations:
        rep = call("bounds.bound_ms", theorem_bound, sigma, doc["betti"],
                   reach, osc)
        bounds.append(rep)
        lines.extend(rep.format_lines())
    return Result("\n".join(lines) + "\n", dga=D, report=report, sub=sub,
                  found=found, linearized=linearized, bounds=bounds,
                  reach=reach, sigma=sigma, betti=doc["betti"],
                  oscillations=oscillations)


OPERATIONS = {"replay": replay, "drift": replay, "engines": engines,
              "chords": chords}


def run(workload, text, call=direct):
    return OPERATIONS[workload](text, call)

