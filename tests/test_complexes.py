"""Filtered complexes: construction invariants, windows, boundaries."""

import random
import sys
from fractions import Fraction

import pytest

from chordbars import (F2, INF, QQ, Augmentation, Bar, Barcode, Chord,
                       ChordDGA, ChordbarsError, FilteredComplex, FP,
                       Generator, SigmaProfile, format_action,
                       partial_linearization, random_complex, sub_dga,
                       theorem_bound)
from chordbars.complexes import as_action, as_degree, boundary_raw
from chordbars.errors import (ActionIncrease, ActionOutsideWindow,
                              DegreeMismatch, DuplicateId, ForeignGenerator,
                              NotSquareZero, ValidationError, WindowTooWide)

q = Fraction


def _pair(field=F2):
    return FilteredComplex(field, (0, INF),
                           [("x", 1, 0), ("y", q(3, 2), 1)],
                           {"y": {"x": 1}})


def test_as_action():
    assert as_action("3/4") == q(3, 4)
    assert as_action(2) == 2
    assert as_action("inf", allow_inf=True) == INF
    with pytest.raises(ValidationError):
        as_action(0.5)
    with pytest.raises(ValidationError):
        as_action(INF)
    with pytest.raises(ValidationError):
        as_action("inf")
    with pytest.raises(ValidationError):
        as_action(True)


# strings off the plain form -?digits[/digits] that as_action reads with
# int(), and plain ones at its edges: each reads as Fraction(text) does, or
# fails with the one message as_action gives for every unreadable value
@pytest.mark.parametrize("text", [
    " 1/2", "+1", "1_0", "1.5", "1e3", "\u0663", "1/0", "1/-2", "1/00",
    "-0", "007/010", "1234567890123456789012345678901", "9" * 5000])
def test_as_action_reads_strings_as_fraction_does(text):
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValidationError) as info:
            as_action(text)
        assert str(info.value) == "cannot read action value %r" % (text,)
    else:
        got = as_action(text)
        assert type(got) is Fraction and got == want


def test_as_action_refuses_values_str_cannot_print():
    # Fraction's parser reads an exponent into as many digits as it says;
    # more than int() reads or str() prints is refused, and an exponent over
    # three times that limit before its power of ten is computed
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("no digit limit set")
    for text in ("1e%d" % (limit - 1), "1e-%d" % (limit - 1),
                 "0.5e%d" % limit, "0e%d" % (2 * limit)):
        assert as_action(text) == Fraction(text)
    for text in ("1e%d" % limit, "1e-%d" % limit, "0e%d" % (3 * limit + 1),
                 "1e%d" % (3 * limit + 1)):
        with pytest.raises(ValidationError) as info:
            as_action(text)
        assert str(info.value) == "cannot read action value %r" % (text,)


def test_degrees_are_integers():
    assert as_degree(2) == 2 and as_degree(-1) == -1
    assert Generator("a", 1, 0).degree == 0
    for bad in (True, False, 1.5, 1.0, "1", "z", None, q(1)):
        with pytest.raises(ValidationError):
            as_degree(bad)
        with pytest.raises(ValidationError):
            Generator("a", 1, bad)


def test_generators_sorted_and_window():
    cx = _pair()
    assert [g.id for g in cx.generators] == ["x", "y"]
    assert cx.window == (0, INF)
    assert cx.generator("x").action == 1
    assert cx.degrees() == [0, 1]
    assert len(cx) == 2
    with pytest.raises(ForeignGenerator):
        cx.generator("zebra")


def test_construction_rejections():
    with pytest.raises(DuplicateId):
        FilteredComplex(F2, (0, INF), [("x", 1, 0), ("x", 2, 0)], {})
    with pytest.raises(ActionOutsideWindow):
        FilteredComplex(F2, (1, 4), [("x", 4, 0)], {})
    with pytest.raises(ActionOutsideWindow):
        FilteredComplex(F2, (1, 4), [("x", q(1, 2), 0)], {})
    with pytest.raises(ValidationError):
        FilteredComplex(F2, (3, 3), [], {})
    with pytest.raises(ForeignGenerator):
        FilteredComplex(F2, (0, INF), [("x", 1, 0)], {"w": {"x": 1}})
    with pytest.raises(ForeignGenerator):
        FilteredComplex(F2, (0, INF), [("x", 1, 0)], {"x": {"w": 1}})
    with pytest.raises(DegreeMismatch):
        FilteredComplex(F2, (0, INF), [("x", 1, 0), ("y", 2, 2)],
                        {"y": {"x": 1}})
    with pytest.raises(ActionIncrease):
        FilteredComplex(F2, (0, INF), [("x", 2, 0), ("y", 1, 1)],
                        {"y": {"x": 1}})
    with pytest.raises(ActionIncrease):
        # equal actions are forbidden too: zero-length bars cannot exist
        FilteredComplex(F2, (0, INF), [("x", 1, 0), ("y", 1, 1)],
                        {"y": {"x": 1}})
    with pytest.raises(NotSquareZero):
        FilteredComplex(F2, (0, INF),
                        [("x", 1, 0), ("y", 2, 1), ("z", 3, 2)],
                        {"z": {"y": 1}, "y": {"x": 1}})


def test_zero_coefficients_dropped():
    cx = FilteredComplex(FP(5), (0, INF), [("x", 1, 0), ("y", 2, 1)],
                         {"y": {"x": 5}})
    assert cx.differential_raw("y") == {}


def test_boundary_of_chain():
    cx = FilteredComplex(FP(5), (0, INF),
                         [("x1", 1, 0), ("x2", 2, 0), ("y", 3, 1)],
                         {"y": {"x1": 2, "x2": 3}})
    diff = {g.id: cx.differential_raw(g.id) for g in cx.generators}
    out = boundary_raw(cx.field, diff, {"y": 2})
    assert out == {"x1": 4, "x2": 1}
    # boundary of a boundary dies
    assert boundary_raw(cx.field, diff, out) == {}


def test_random_complex_always_valid():
    for seed in range(40):
        rng = random.Random(seed)
        field = rng.choice([F2, FP(5), QQ])
        cx = random_complex(rng, field)
        # construction re-validates everything; also: in-window actions
        a, b = cx.window
        for g in cx.generators:
            assert a <= g.action and (b == INF or g.action < b)
        FilteredComplex(field, cx.window,
                        [(g.id, g.action, g.degree) for g in cx.generators],
                        {g.id: cx.differential_raw(g.id)
                         for g in cx.generators})


def test_generator_sort_key_breaks_ties_by_id():
    cx = FilteredComplex(F2, (0, INF), [("b", 1, 0), ("a", 1, 0)], {})
    assert [g.id for g in cx.generators] == ["a", "b"]
    assert Generator("a", 1, 0).sort_key < Generator("b", 1, 0).sort_key


def _outcome(make):
    try:
        return make()
    except ChordbarsError as e:
        return type(e), str(e)


_MIXED = ChordDGA(QQ, [Chord("m", 1, 0, (0, 1))], {})


def _linearize_mixed(l):
    return partial_linearization(_MIXED, Augmentation(QQ), (0, INF), l=l)


def _bound_view(r):
    return r.count, r.i_star, r.binding_constraint, r.ordering


# INF is math.inf: it sorts above every action and prints as "inf", in bars,
# windows, gap profiles and the augmentation reach alike
_INF_PINS = [
    (lambda: repr(Bar(1, INF, 0)), "Bar[1, inf) deg 0"),
    (lambda: Bar(1, INF).length, INF),
    (lambda: [repr(b) for b in Barcode([Bar(0, INF, 0), Bar(0, 2, 0),
                                        Bar(0, 1)]).bars],
     ["Bar[0, 1)", "Bar[0, 2) deg 0", "Bar[0, inf) deg 0"]),
    (lambda: format_action(INF), "inf"),
    (lambda: repr(FilteredComplex(F2, (0, INF), [], {})),
     "FilteredComplex(F2, window=[0, inf), 0 generators)"),
    (lambda: _linearize_mixed(2),
     (WindowTooWide, "window width inf exceeds the augmentation reach 2")),
    (lambda: repr(_linearize_mixed(INF)),
     "FilteredComplex(Q, window=[0, inf), 1 generators)"),
    (lambda: [repr(_linearize_mixed(l)) for l in ("inf", INF)],
     ["FilteredComplex(Q, window=[0, inf), 1 generators)"] * 2),
    (lambda: _bound_view(theorem_bound([INF, 3, INF], [1, 1, 1], 5, 1)),
     (3, 2, "sigma", [0, 2, 1])),
    (lambda: SigmaProfile([0]),
     (ValidationError, "gap values must be positive, got 0")),
    (lambda: theorem_bound([1], [1], 0, 0),
     (ValidationError, "augmentation reach must be positive, got 0")),
    (lambda: [sub_dga(_MIXED, l) is _MIXED for l in ("inf", INF)],
     [True, True]),
    (lambda: sub_dga(_MIXED, 0),
     (ValidationError, "augmentation reach must be positive, got 0")),
    # the reach is read before the width gate compares it to the window
    (lambda: _linearize_mixed("-1/2"),
     (ValidationError, "augmentation reach must be positive, got -1/2")),
]


@pytest.mark.parametrize("make, want", _INF_PINS)
def test_infinity_orders_and_prints_as_a_number(make, want):
    assert _outcome(make) == want
