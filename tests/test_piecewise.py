"""Piecewise-linear paths: exact values, calculus, and algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chordbars import PLPath
from chordbars.piecewise import merge_times
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
    # one-sided slopes need a piece on that side, also under python -O
    with pytest.raises(ValidationError):
        PLPath([(0, 0), (1, 1), (2, 5)]).slope_before(0)
    with pytest.raises(ValidationError):
        PLPath([(0, 0), (1, 1)]).slope_after(1)


def test_int_breakpoints_stay_exact():
    p = PLPath([(0, 1), (1, 3)])
    slope = p.slope_after(0)
    assert slope == 2 and type(slope) is Fraction
    roots, flats = (p - PLPath([(0, 2), (1, 2)])).zeros()
    assert roots == [q(1, 2)] and type(roots[0]) is Fraction
    assert flats == []
    # floats stay floats (the float mode of bounds)
    assert type(PLPath([(0, 1.5), (1, 2)]).value(q(1, 2))) is float


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
    r1, r2 = p1.restrict(lo, hi), p2.restrict(lo, hi)
    s, d = r1 + r2, r1 - r2
    ts = merge_times(r1.breakpoint_times(), r2.breakpoint_times())
    assert s.breakpoint_times() == ts and d.breakpoint_times() == ts
    for t in ts:
        assert s.value(t) == p1.value(t) + p2.value(t)
        assert d.value(t) == p1.value(t) - p2.value(t)
    assert s.min_value() >= r1.min_value() + r2.min_value()


@settings(max_examples=100)
@given(paths(), st.data())
def test_values_at_matches_value(p, data):
    inner = data.draw(st.lists(
        st.fractions(p.t_start, p.t_end, max_denominator=16), max_size=8))
    ts = sorted(inner + p.breakpoint_times() + [p.t_start, p.t_end])
    assert p.values_at(ts) == [p.value(t) for t in ts]
    assert p.values_at([]) == []
    outside = data.draw(st.sampled_from([p.t_start - 1, p.t_end + q(1, 3)]))
    with pytest.raises(ValidationError):
        p.values_at(sorted(ts + [outside]))
    if len(p.points) > 2:  # a time before the current piece
        with pytest.raises(ValidationError):
            p.values_at([p.t_end, p.t_start])
