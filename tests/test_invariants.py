"""Invariants of the code base itself.

Input-reachable checks raise typed errors, the same under ``python -O``.
An ``assert`` vanishes under ``-O``, so any condition user input can reach
must be an explicit check raising a :class:`ChordbarsError`.  The asserts
left in the package guard true internal invariants, and each says why on
its own line with an ``# invariant:`` comment.

The definitional barcode engine shares no code with the reduction engine,
and the pytest configuration still reports a failing hypothesis example.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import chordbars

PACKAGE = Path(chordbars.__file__).resolve().parent


def test_every_assert_is_a_commented_invariant():
    bare = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.Assert) and \
                    "# invariant:" not in lines[node.lineno - 1]:
                bare.append("%s:%d" % (path.name, node.lineno))
    assert not bare, "asserts without an '# invariant:' comment: %s" % bare


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
    path = PACKAGE / "barcodes.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    (fn,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
             and node.name == "barcode_definitional"]
    named = set()
    for node in ast.walk(fn):
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.value if isinstance(node, ast.Constant) else None)
        if name in _REDUCTION_NAMES:
            named.add("%d %s" % (node.lineno, name))
    assert not named, "barcode_definitional names %s" % sorted(named)


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
