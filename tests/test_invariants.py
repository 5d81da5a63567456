"""Invariants of the code base itself.

Input-reachable checks raise typed errors, the same under ``python -O``.
An ``assert`` vanishes under ``-O``, so the package has none: every
invariant is an explicit check raising a :class:`ChordbarsError`.

The definitional barcode engine shares no code with the reduction engine,
the pytest configuration still reports a failing hypothesis example,
every library function the benchmark hooks still exists, every
workload's benchmark documents keep their pinned output digests, every
exported name is there to import, no module, test or demo imports a
name it never reads, and refusals no other test reaches keep their class
and text.
"""

import ast
import gzip
import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import chordbars
from chordbars import (F2, FP, INF, Bar, DGAMorphism, Field, FilteredComplex,
                       OscillationProfile, canonical_form, chord_drift,
                       check_canonical_form, constant_width_schedule, dga,
                       stabilized_unknot_shape, standard_unknot_shape,
                       two_cluster_complex, two_copy_template)
from chordbars.errors import BadCharacteristic, EngineMismatch, ValidationError

PACKAGE = Path(chordbars.__file__).resolve().parent


# Fraction internals that may change between Python versions; the exact
# kernels read ``as_integer_ratio()`` and build results with ``Fraction(n, d)``
_PRIVATE_FRACTION = {"_numerator", "_denominator", "_normalize",
                     "_from_coprime_ints"}


def test_no_private_fraction_api():
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text, str(path))):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.value if isinstance(node, ast.Constant) else None)
            if name in _PRIVATE_FRACTION:  # x._numerator, getattr(x, "...")
                reads.append("%s:%d %s" % (path.name, node.lineno, name))
    assert not reads, "private Fraction API used: %s" % reads


# the reduction engine and its checks; the oracle must reach none of them
_REDUCTION_NAMES = {"_reduce", "canonical_form", "check_canonical_form",
                    "barcode_from_canonical", "nullspace"}


def test_definitional_engine_is_independent():
    # the oracle's body and every module-level function of barcodes.py it
    # reaches, transitively (the table reader behind recover among them)
    path = PACKAGE / "barcodes.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    todo, walked, named = ["barcode_definitional"], set(), set()
    while todo:
        fn = todo.pop()
        if fn in walked:
            continue
        walked.add(fn)
        for node in ast.walk(functions[fn]):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.value if isinstance(node, ast.Constant) else None)
            if name in _REDUCTION_NAMES:
                named.add("%s:%d %s" % (fn, node.lineno, name))
            if isinstance(node, ast.Name) and node.id in functions:
                todo.append(node.id)
    assert walked > {"barcode_definitional"}, "the oracle reaches no helper"
    assert not named, "barcode_definitional reaches %s" % sorted(named)


_FAILING_HYPOTHESIS_TEST = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
"""


def test_hypothesis_failure_is_reported(tmp_path):
    # warnings are errors, and one raised while hypothesis explains a
    # failure would end the run in INTERNALERROR without the example
    (tmp_path / "test_fails.py").write_text(_FAILING_HYPOTHESIS_TEST)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c",
         str(Path(__file__).resolve().parents[1] / "pyproject.toml"),
         "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out


ROOT = Path(__file__).resolve().parents[1]


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(
        "bench_" + name, ROOT / "bench" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve():
    # the benchmark names library functions by attribute when it is
    # imported; deleting one (say PLPath.zeros) must fail here too
    layers, ops = _bench_module("layers"), _bench_module("ops")
    codes = [code for group in layers.COUNTED.values() for code in group]
    codes += list(layers.TIMED.values()) + [layers._CHECK, layers._SEARCH]
    ours = [c for c in codes if Path(c.co_filename).name != "fractions.py"]
    assert ours and all(Path(c.co_filename).resolve().parent == PACKAGE
                        for c in ours)
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert all(callable(ops.OPERATIONS[w["name"]]) for w in workloads)


def test_chords_documents_validate_each_chord_once(monkeypatch):
    # the benchmark's chords operation validates D, searches a sub-DGA of
    # it and linearizes D over several windows; each chord's laws are
    # checked once, and the linearization builds no chord algebra
    ops = _bench_module("ops")
    with gzip.open(ROOT / "bench" / "inputs" / "chords.json.gz") as fh:
        docs = json.load(fh)["docs"]
    squares = Counter()
    built = [0]

    class Entry(dga.CheckEntry):
        __slots__ = ()

        def __init__(self, kind, subject, at, ok, detail=""):
            super().__init__(kind, subject, at, ok, detail)
            if kind == "square":
                squares[subject] += 1

    init = dga.ChordDGA.__init__

    def counted_init(self, *args, **kw):
        built[0] += 1
        init(self, *args, **kw)

    by_call = Counter()

    def call(_stage, fn, *args, **kw):
        before = built[0]
        out = fn(*args, **kw)
        by_call[fn.__name__] += built[0] - before
        return out

    monkeypatch.setattr(dga, "CheckEntry", Entry)
    monkeypatch.setattr(dga.ChordDGA, "__init__", counted_init)
    for k, text in enumerate(docs):
        squares.clear()
        D = ops.chords(text, call).rich["dga"]
        assert squares == Counter(D.labels()), k
    assert by_call["partial_linearization"] == 0
    assert by_call["parse_dga"] == len(docs)


def test_benchmark_documents_are_the_generators_output():
    # the pinned replay, engines and chords documents are what the
    # library's seeded generators give for every seed the benchmark uses;
    # only the builders run, so nothing is written
    make_inputs = _bench_module("make_inputs")
    expected = json.loads(
        (ROOT / "bench" / "inputs" / "expected.json").read_text())
    for name in ("replay", "engines", "chords"):
        with gzip.open(ROOT / "bench" / "inputs" / (name + ".json.gz")) as fh:
            docs = json.load(fh)["docs"]
        built = make_inputs.BUILDERS[name]()
        assert [text for text, _ in built] == docs, name
        assert [meta for _, meta in built] == expected[name]["meta"], name


@pytest.mark.parametrize("workload, count", [
    ("replay", 100), ("drift", 40), ("engines", 100), ("chords", 210)])
def test_bench_documents_keep_their_digests(workload, count):
    # each benchmark operation on its pinned documents gives the output
    # digests pinned with them (sha256, first 16 hex digits, as
    # bench/checks.py computes them); only those files are read
    ops = _bench_module("ops")
    with gzip.open(ROOT / "bench" / "inputs" / (workload + ".json.gz")) as fh:
        docs = json.load(fh)["docs"]
    expected = json.loads(
        (ROOT / "bench" / "inputs" / "expected.json").read_text())
    got = [hashlib.sha256(ops.run(workload, text).output.encode())
           .hexdigest()[:16] for text in docs]
    assert len(docs) == count
    assert got == expected[workload]["digests"]


def test_every_export_exists():
    # an export deleted from the package but left in __all__ breaks
    # ``from chordbars import *``
    missing = [n for n in chordbars.__all__ if not hasattr(chordbars, n)]
    assert not missing, "names in __all__ that the package lacks: %s" % missing


def _unused_imports(path):
    """Names ``path`` imports and never reads; a name listed in ``__all__``
    counts as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    bound, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                read |= {c.value for c in ast.walk(node.value)
                         if isinstance(c, ast.Constant)}
    return ["%s:%d %s" % (path.relative_to(ROOT), line, name)
            for name, line in bound.items() if name not in read]


def test_no_unused_imports():
    # bench/ is left out: it changes only with the benchmark
    unused = [u for d in (PACKAGE, ROOT / "tests", ROOT / "demos")
              for path in sorted(d.glob("*.py"))
              for u in _unused_imports(path)]
    assert not unused, "imported and never read: %s" % unused


def _private_names(trees):
    """(owner, name, where) for each ``_name`` a module or class body of
    ``trees`` defines and nothing in them reads; owner is the class, or None
    at module level.  ``self._x`` and ``cls._x`` read their own class's
    name, ``C._x`` class C's, and any other ``obj._x`` every class's."""
    bodies = [(path, None, tree.body) for path, tree in trees]
    bodies += [(path, c.name, c.body) for path, tree in trees
               for c in tree.body if isinstance(c, ast.ClassDef)]
    classes = {owner for _, owner, _ in bodies if owner}
    defined, read = [], set()
    for path, owner, body in bodies:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(owner, n, "%s:%d" % (path, node.lineno)) for n in names
                        if n.startswith("_") and not n.endswith("__")]
        # a class body is walked on its own, so self reads its class's names
        code = []
        for n in body:
            code += (n.bases + n.decorator_list if owner is None and
                     isinstance(n, ast.ClassDef) else [n])
        for node in (x for n in code for x in ast.walk(n)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((None, node.id))
            elif isinstance(node, ast.ImportFrom):
                read |= {(None, alias.name) for alias in node.names}
            elif isinstance(node, ast.Attribute):
                value = getattr(node.value, "id", None)
                if value in ("self", "cls"):
                    read.add((owner, node.attr))
                else:
                    read.add((value if value in classes else "*", node.attr))
    return [(owner, name, where) for owner, name, where in defined
            if (owner, name) not in read
            and (owner is None or ("*", name) not in read)]


def test_no_unread_private_names():
    # a private helper, constant or method that its module and the rest of
    # the package never read is left over from code that went
    trees = [(path.relative_to(ROOT),
              ast.parse(path.read_text(encoding="utf-8"), str(path)))
             for path in sorted(PACKAGE.glob("*.py"))]
    assert _private_names(trees) == []
    # a leftover method is found even where another class has one of its name
    leftover = ast.parse("class A:\n    def _of_raw(self): pass\n"
                         "class B:\n    def _of_raw(self): pass\n"
                         "B._of_raw()\n_X = 1\n")
    assert _private_names([("m.py", leftover)]) == [
        (None, "_X", "m.py:6"), ("A", "_of_raw", "m.py:2")]


def test_no_assert_in_the_library():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(ast.parse(text, str(path)))
                  if isinstance(node, ast.Assert)]
    assert not found, "asserts vanish under -O: %s" % found


_SCRIPT = """
from fractions import Fraction
from chordbars import (F2, Chord, ChordDGA, DGAMorphism, OscillationProfile,
                       PLPath, birth_morphism, chord_drift,
                       handle_slide_morphism)
from chordbars.errors import ChordbarsError
from chordbars.linalg import matmul


def attempt(name, fn):
    try:
        fn()
        print(name, "ok")
    except ChordbarsError as exc:
        print(name, type(exc).__name__)


A = ChordDGA(F2, [Chord("a", 1, 0)])
B = ChordDGA(F2, [Chord("b", 1, 0)])
attempt("compose", lambda: DGAMorphism(A, A, {}).compose(DGAMorphism(B, B, {})))
attempt("matmul", lambda: matmul([[1, 0]], [[1, 0]], F2))
# x is longer after the slide than before it: the map is not filtered
Dm = ChordDGA(F2, [Chord("a", 3, 0), Chord("b", 1, 0), Chord("x", 1, 0)])
Dp = ChordDGA(F2, [Chord("a", 3, 0), Chord("b", 1, 0), Chord("x", 5, 0)])
attempt("slide", lambda: handle_slide_morphism(Dm, Dp, "a", ("b",)))
Dm = ChordDGA(F2, [Chord("b", 1, 0), Chord("a", 2, 1), Chord("x", 1, 0)],
              {"a": {("b",): 1}})
Dp = ChordDGA(F2, [Chord("b", 1, 0), Chord("a", 2, 1), Chord("x", 9, 0)])
attempt("birth", lambda: birth_morphism(Dm, Dp, "a", "b", ["x"]))
prof = OscillationProfile([(0, 2, 0), (Fraction(1, 2), 4, -1), (1, 2, 0)])
print("drift", chord_drift(prof, prof.hi, prof.lo)[0])
"""


def test_typed_errors_under_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    outputs = []
    for flags in ([], ["-O"]):
        run = subprocess.run([sys.executable] + flags + ["-c", _SCRIPT],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0, (flags, run.stderr)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines() == [
        "compose ValidationError", "matmul ValidationError",
        "slide ValidationError", "birth ValidationError", "drift 7/2"]


def _check_another_complexs_form():
    one, other = (FilteredComplex(F2, (0, INF), [(gid, 1, 0)], {})
                  for gid in "ab")
    check_canonical_form(one, canonical_form(other))


_LIBRARY_REFUSALS = [
    (lambda: Bar(1, 1), ValidationError, "bar needs start < end, got [1, 1)"),
    (_check_another_complexs_form, EngineMismatch,
     "canonical form order ('b',) is not the complex's"),
    (lambda: OscillationProfile([]), ValidationError,
     "profile needs at least one sample"),
    (lambda: constant_width_schedule(0), ValidationError,
     "width must be positive"),
    (lambda: chord_drift(OscillationProfile.constant(1, -1),
                         [(0, 0), (2, 0)], [(0, 0), (1, 0)]),
     ValidationError, "end rate must be defined on [0, 1]"),
    (lambda: FilteredComplex("F2", (0, INF), [("a", 1, 0)], {}),
     ValidationError, "field must be a Field, got 'F2'"),
    (lambda: DGAMorphism(standard_unknot_shape(F2),
                         standard_unknot_shape(F2), {}).compose(
        DGAMorphism(stabilized_unknot_shape(F2),
                    stabilized_unknot_shape(F2), {})),
     ValidationError, "cannot compose: the inner morphism's target chords "
     "are not this morphism's source chords"),
    (lambda: FP(0), BadCharacteristic, "characteristic 0 is Q, use QQ"),
    (lambda: stabilized_unknot_shape(F2, 5, 1, 4), ValidationError,
     "lengths must satisfy 0 < l1, l2 < l0"),
    (lambda: two_copy_template(F2, 3, [("a", 2, 0)]), ValidationError,
     "separation 3 must exceed twice the longest chord"),
    (lambda: two_copy_template(F2, 10, [("a", 2, 0)], [("m", 2, 0)]),
     ValidationError, "offset of 'm' reaches into the side clusters"),
    (lambda: two_copy_template(F2, 0, []), ValidationError,
     "separation must be positive"),
    (lambda: two_cluster_complex(random.Random(0), F2, 4, bottom_count=4),
     ValidationError, "the parity argument needs an odd bottom count"),
    (lambda: two_cluster_complex(random.Random(0), F2, Fraction(1, 8)),
     ValidationError, "cluster geometry must satisfy 0 < spread < gap"),
    # 1 fails before the trial divisions, 41·43 and 3215031751 (a strong
    # pseudoprime to the bases 2, 3, 5 and 7) only in Miller-Rabin
    (lambda: Field(1), BadCharacteristic,
     "characteristic must be 0 or a prime, got 1"),
    (lambda: Field(1763), BadCharacteristic,
     "characteristic must be 0 or a prime, got 1763"),
    (lambda: Field(3215031751), BadCharacteristic,
     "characteristic must be 0 or a prime, got 3215031751"),
]


def test_library_refusals_name_what_they_refuse():
    for build, error, message in _LIBRARY_REFUSALS:
        with pytest.raises(error) as info:
            build()
        assert type(info.value) is error and str(info.value) == message
    # primes past the trial divisions pass every Miller-Rabin round
    for p in (1009, 2 ** 61 - 1):
        assert Field(p).char == p
