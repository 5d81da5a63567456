"""Command-line surface: validate, barcode, simulate, linearize, bound,
fixtures.

Exit codes are a stable contract: 0 success, 1 mathematical/domain
validation failure, 2 I/O or parse failure (including bad usage).  Machine
formats (structured JSON, CSV) are deterministic byte-for-byte; ``--stamp``
adds a provenance header to the human-readable formats only.
"""

import argparse
import datetime
import sys
from fractions import Fraction

from . import schemas
from .barcodes import (_diagram_width, barcode_csv_rows, barcode_diagram_lines,
                       barcode_of, barcode_table_lines, format_action)
from .bounds import oscillation, theorem_bound
from .complexes import INF
from .dga import partial_linearization, validate_dga
from .errors import ParseError, ValidationError, WindowTooWide
from .fields import Field
from .fixtures import (stabilized_unknot_shape, standard_unknot_shape,
                       two_copy_template)
from .timelines import check_transitions, simulate, vineyard_rows

HUMAN_FORMATS = ("table", "diagram")


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError("not UTF-8 text (%s)" % exc.reason,
                         where=path) from None


def _load_json(path):
    return schemas.loads(_read_text(path), source=path)


def _stamp_lines(args):
    if getattr(args, "stamp", False):
        now = datetime.datetime.now(datetime.timezone.utc)
        return ["# chordbars %s" % now.isoformat(timespec="seconds")]
    return []


def _print_barcode(B, fmt, args, out):
    lines = []
    if fmt in HUMAN_FORMATS:
        lines.extend(_stamp_lines(args))
    if fmt == "table":
        lines.extend(barcode_table_lines(B))
    elif fmt == "diagram":
        lines.extend(barcode_diagram_lines(B, width=args.width))
    elif fmt == "structured":
        lines.append(schemas.dumps(schemas.barcode_json(B)).rstrip("\n"))
    else:  # csv
        lines.extend(",".join(row) for row in barcode_csv_rows(B))
    for line in lines:
        print(line, file=out)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args, out):
    doc = _load_json(args.path)
    if not isinstance(doc, dict):
        raise ParseError("expected a top-level object", args.path)
    if "chords" in doc:
        D = schemas.parse_dga(doc, where=args.path)
        report = validate_dga(D)
        for e in report.entries:
            status = "ok" if e.ok else "FAIL — %s" % e.detail
            print("%s %r: %s" % (e.kind, e.subject, status), file=out)
        if not report.ok:
            print("invalid: %d failed check(s)" % len(report.failures()),
                  file=out)
            return 1
        print("valid chord algebra: %d chords" % len(D.chords), file=out)
        return 0
    if "initial" in doc:
        initial, items = schemas.parse_timeline(doc, where=args.path)
        print("valid timeline: %d generators initially, %d items"
              % (len(initial.generators), len(items)), file=out)
        return 0
    cx = schemas.parse_complex(doc, where=args.path)
    a, b = cx.window
    print("valid complex: %d generators, window [%s, %s)"
          % (len(cx.generators), format_action(a), format_action(b)),
          file=out)
    return 0


def cmd_barcode(args, out):
    cx = schemas.parse_complex(_load_json(args.path), where=args.path)
    B = barcode_of(cx, engine=args.engine)
    _print_barcode(B, args.format, args, out)
    return 0


def _render_report(report, out, args):
    entries, failed = report.entries, len(report.failures())
    for line in _stamp_lines(args):
        print(line, file=out)
    for e in entries:
        status = "pass" if e.ok else "FAIL"
        suffix = " (%s)" % e.detail if e.detail else ""
        print("%s @ t=%s: %s%s" % (e.kind, format_action(e.at),
                                   status, suffix), file=out)
    print("checks: %d run, %d failed" % (len(entries), failed), file=out)
    return failed


def cmd_simulate(args, out):
    initial, items = schemas.parse_timeline(_load_json(args.path),
                                            where=args.path)
    trace = simulate(initial, items)
    failed = _render_report(check_transitions(trace), out, args)
    if args.vineyard:
        with open(args.vineyard, "w", encoding="utf-8") as fh:
            fh.write(schemas.vineyard_csv(vineyard_rows(trace)))
        print("vineyard written to %s" % args.vineyard, file=out)
    return 1 if failed else 0


def cmd_linearize(args, out):
    D = schemas.parse_dga(_load_json(args.dga), where=args.dga)
    eps = schemas.parse_augmentation(_load_json(args.augmentation), D.field,
                                     where=args.augmentation)
    a = schemas._action(args.window[0], "--window", allow_inf=True)
    b = schemas._action(args.window[1], "--window", allow_inf=True)
    if a == INF:
        raise ParseError("window bottom must be finite", "--window")
    reach = schemas._action(args.reach, "--reach", allow_inf=True)
    try:
        cx = partial_linearization(D, eps, (a, b), l=reach)
    except WindowTooWide as exc:
        print("error: %s" % exc, file=sys.stderr)
        print("hypothesis violated: the window width b - a must be at most "
              "the reach l", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(schemas.dumps(schemas.serialize_complex(cx)))
        print("complex written to %s" % args.out, file=out)
    B = barcode_of(cx, engine=args.engine)
    _print_barcode(B, args.format, args, out)
    return 0


def cmd_bound(args, out):
    sigma = schemas.parse_rational_array(_load_json(args.sigma), args.sigma,
                                         allow_inf=True)
    betti = schemas.parse_rank_array(_load_json(args.betti), args.betti)
    reach = schemas._action(args.reach, "--reach", allow_inf=True)
    if args.profile is not None:
        prof = schemas.parse_profile_csv(_read_text(args.profile),
                                         source=args.profile)
        osc = oscillation(prof)
    else:
        osc = schemas._action(args.oscillation, "--oscillation")
    report = theorem_bound(sigma, betti, reach, osc)
    for line in _stamp_lines(args):
        print(line, file=out)
    for line in report.format_lines():
        if line.startswith("count:") and report.count == 0:
            line += " (strict inequality required)"
        print(line, file=out)
    return 0


def _fixture_files():
    """Deterministic built-in example inputs, name -> file text."""
    F2 = Field.parse("F2")
    F5 = Field.parse("F5")

    demo_complex = schemas.parse_complex({
        "field": "F2",
        "window": ["0", "inf"],
        "generators": [{"id": "a", "action": "1", "degree": 0},
                       {"id": "b", "action": "3/2", "degree": 1},
                       {"id": "c", "action": "2", "degree": 1}],
        "differential": {"b": [{"id": "a", "coeff": "1"}]},
    })

    from .timelines import Birth, Death, DriftSegment, HandleSlide
    q = Fraction
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

    two_copy = two_copy_template(F5, 10, [("c", 1, 1)],
                                 [("e", Fraction(1, 4), -1)],
                                 {"e": {("p_c",): 1}})

    return {
        "demo_complex.json": schemas.dumps(
            schemas.serialize_complex(demo_complex)),
        "demo_timeline.json": schemas.dumps(
            schemas.serialize_timeline(demo_complex, items)),
        "standard_unknot.dga.json": schemas.dumps(
            schemas.serialize_dga(standard_unknot_shape(F2))),
        "stabilized_unknot.dga.json": schemas.dumps(
            schemas.serialize_dga(stabilized_unknot_shape(F2))),
        "two_copy.dga.json": schemas.dumps(schemas.serialize_dga(two_copy)),
        "two_copy.augmentation.json": schemas.dumps({}),
        "sigma.json": schemas.dumps(["5", "inf", "5"]),
        "betti.json": schemas.dumps([1, 0, 1]),
        "profile.csv": "t,max,min\n0,2,0\n1/2,4,-1\n1,2,0\n",
    }


def cmd_fixtures(args, out):
    import os
    os.makedirs(args.dest, exist_ok=True)
    for name, text in sorted(_fixture_files().items()):
        path = os.path.join(args.dest, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print("wrote %s" % path, file=out)
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def _width(text):
    """A diagram width, checked at parse time by the diagram's own rule so
    that a bad one is a usage error."""
    try:
        return _diagram_width(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r"
                                         % text) from None
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_format_args(p):
    p.add_argument("--format", default="table",
                   choices=("table", "structured", "csv", "diagram"),
                   help="output format (default: table)")
    p.add_argument("--width", type=_width, default=48,
                   help="column width of the diagram format")
    p.add_argument("--stamp", action="store_true",
                   help="add a provenance header to human-readable output")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chordbars",
        description="Exact barcodes, bifurcation timelines, chord-algebra "
                    "linearization, and displacement bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a complex, chord algebra, "
                                        "or timeline file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("barcode", help="compute the barcode of a complex")
    p.add_argument("path")
    p.add_argument("--engine", choices=("canonical", "definitional", "both"),
                   default="canonical")
    _add_format_args(p)
    p.set_defaults(func=cmd_barcode)

    p = sub.add_parser("simulate", help="replay a timeline and check every "
                                        "barcode transition")
    p.add_argument("path")
    p.add_argument("--vineyard", metavar="CSV",
                   help="also write bar trajectories as CSV")
    p.add_argument("--stamp", action="store_true",
                   help="add a provenance header to the report")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("linearize",
                       help="partially linearize a chord algebra over an "
                            "augmentation inside an action window")
    p.add_argument("dga")
    p.add_argument("augmentation")
    p.add_argument("--window", nargs=2, metavar=("A", "B"), required=True,
                   help="action window [A, B); B may be 'inf'")
    p.add_argument("--reach", default="inf",
                   help="augmentation reach l (default: inf)")
    p.add_argument("--out", metavar="PATH",
                   help="write the resulting complex file here")
    p.add_argument("--engine", choices=("canonical", "definitional", "both"),
                   default="canonical")
    _add_format_args(p)
    p.set_defaults(func=cmd_linearize)

    p = sub.add_parser("bound", help="displacement lower bound from length "
                                     "and homology profiles")
    p.add_argument("sigma", help="JSON array of gap lengths ('inf' allowed)")
    p.add_argument("betti", help="JSON array of non-negative integers")
    p.add_argument("--reach", default="inf",
                   help="augmentation reach l (default: inf)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--oscillation", help="oscillation value (rational)")
    group.add_argument("--profile", metavar="CSV",
                       help="oscillation profile CSV (t, max, min)")
    p.add_argument("--stamp", action="store_true",
                   help="add a provenance header to the report")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("fixtures", help="write the built-in example files")
    p.add_argument("--dest", default=".", help="output directory")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, sys.stdout)
    except ParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValidationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
