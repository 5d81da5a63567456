"""Piecewise-linear paths: exact values, calculus, and algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chordbars import PLPath
from chordbars.errors import ValidationError

q = Fraction


def _path():
    return PLPath([(0, 0), (q(1, 2), 1), (1, 0)])


def test_construction_rejects_bad_points():
    with pytest.raises(ValidationError):
        PLPath([(0, 0)])
    with pytest.raises(ValidationError):
        PLPath([(0, 0), (0, 1)])
    with pytest.raises(ValidationError):
        PLPath([(1, 0), (0, 1)])


def test_values_and_slopes():
    p = _path()
    assert (p.t_start, p.t_end) == (0, 1)
    assert (p.start_value, p.end_value) == (0, 0)
    assert p.value(q(1, 4)) == q(1, 2)
    assert p.value(q(3, 4)) == q(1, 2)
    assert p.slope_after(0) == 2
    assert p.slope_before(1) == -2
    assert p.slope_after(q(1, 2)) == -2
    assert p.slope_before(q(1, 2)) == 2
    for t in (-1, q(3, 2), 5):
        with pytest.raises(ValidationError):
            p.value(t)


def test_integral_exact():
    p = _path()
    assert p.integral(0, 1) == q(1, 2)
    assert p.integral(0, q(1, 2)) == q(1, 4)
    assert p.integral(q(1, 4), q(3, 4)) == q(3, 8)
    assert PLPath.constant(q(5, 3), 0, 3).integral(0, 3) == 5


def test_min_max_zeros():
    p = _path()
    assert p.min_value() == 0
    assert p.max_value() == 1
    shifted = p + PLPath.constant(q(-1, 2), 0, 1)
    assert shifted.min_value() == q(-1, 2)
    roots, flats = shifted.zeros()
    assert roots == [q(1, 4), q(3, 4)] and flats == []
    roots, flats = PLPath.constant(0, 0, 1).zeros()
    assert roots == [] and flats == [(0, 1)]


def test_algebra():
    p = _path()
    c = PLPath.constant(2, 0, 1)
    assert (p + c).value(q(1, 2)) == 3
    assert (p - c).value(0) == -2
    assert (-p).min_value() == -1
    assert p.scale(3).max_value() == 3
    assert p.scale(q(1, 2)).integral(0, 1) == q(1, 4)
    with pytest.raises(ValidationError):
        p - PLPath.constant(2, 0, 2)


def test_restrict():
    p = _path()
    r = p.restrict(q(1, 4), q(3, 4))
    assert (r.t_start, r.t_end) == (q(1, 4), q(3, 4))
    assert r.value(q(1, 2)) == 1
    assert r.max_value() == 1
    with pytest.raises(ValidationError):
        p.restrict(q(1, 2), 2)


def test_breakpoints():
    p = _path()
    assert p.breakpoint_times() == [0, q(1, 2), 1]


times = st.lists(st.fractions(0, 4, max_denominator=8),
                 min_size=2, max_size=6, unique=True).map(sorted)
values = st.fractions(-3, 3, max_denominator=6)


@st.composite
def paths(draw):
    ts = draw(times)
    return PLPath([(t, draw(values)) for t in ts])


@settings(max_examples=100)
@given(paths(), st.data())
def test_integral_additive(p, data):
    ts = sorted(data.draw(st.lists(
        st.fractions(p.t_start, p.t_end, max_denominator=16),
        min_size=3, max_size=3, unique=True)))
    a, b, c = ts
    assert p.integral(a, b) + p.integral(b, c) == p.integral(a, c)


@settings(max_examples=100)
@given(paths(), paths())
def test_sum_pointwise(p1, p2):
    lo = max(p1.t_start, p2.t_start)
    hi = min(p1.t_end, p2.t_end)
    if not lo < hi:
        return
    s = p1.restrict(lo, hi) + p2.restrict(lo, hi)
    for t in s.breakpoint_times():
        assert s.value(t) == p1.value(t) + p2.value(t)
    assert s.min_value() >= p1.restrict(lo, hi).min_value() \
        + p2.restrict(lo, hi).min_value()
