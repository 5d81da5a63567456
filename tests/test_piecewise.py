"""Piecewise-linear paths: exact values, calculus, and differences."""

import math
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


def test_values():
    p = _path()
    assert (p.t_start, p.t_end) == (0, 1)
    assert (p.start_value, p.end_value) == (0, 0)
    assert p.value(q(1, 4)) == q(1, 2)
    assert p.value(q(3, 4)) == q(1, 2)
    for t in (-1, q(3, 2), 5):
        with pytest.raises(ValidationError):
            p.value(t)


def test_int_breakpoints_stay_exact():
    p = PLPath([(0, 1), (1, 3)])
    value = p.value(q(1, 3))
    assert value == q(5, 3) and type(value) is Fraction
    roots, flats = (p - PLPath([(0, 2), (1, 2)])).zeros()
    assert roots == [q(1, 2)] and type(roots[0]) is Fraction
    assert flats == []


def test_coordinates_are_read_as_exact_actions():
    # int, str and Fraction coordinates are all stored as Fractions
    p = PLPath([(0, "3/2"), ("1/2", q(1, 3)), (q(1), -2)])
    assert p.points == ((0, q(3, 2)), (q(1, 2), q(1, 3)), (1, -2))
    assert all(type(x) is Fraction for pt in p.points for x in pt)
    assert all(type(x) is Fraction for x in PLPath.constant(4, 0, 1).points[0])
    # a float or bool coordinate is refused, not carried along
    for bad in (0.5, float("inf"), float("nan"), True):
        for points in ([(0, bad), (1, 0)], [(0, 0), (bad, 1), (2, 0)]):
            with pytest.raises(ValidationError):
                PLPath(points)
    with pytest.raises(ValidationError):
        PLPath.constant(1.0, 0, 1)


def test_integral_exact():
    p = _path()
    assert p.integral(0, 1) == q(1, 2)
    assert p.integral(0, q(1, 2)) == q(1, 4)
    assert p.integral(q(1, 4), q(3, 4)) == q(3, 8)
    assert PLPath.constant(q(5, 3), 0, 3).integral(0, 3) == 5


def test_min_and_zeros():
    p = _path()
    assert p.min_value() == 0
    shifted = p - PLPath.constant(q(1, 2), 0, 1)
    assert shifted.min_value() == q(-1, 2)
    roots, flats = shifted.zeros()
    assert roots == [q(1, 4), q(3, 4)] and flats == []
    roots, flats = PLPath.constant(0, 0, 1).zeros()
    assert roots == [] and flats == [(0, 1)]


def test_algebra():
    p = _path()
    c = PLPath.constant(2, 0, 1)
    assert (p - c).value(0) == -2
    assert (c - p).min_value() == 1
    assert (p - c).integral(0, 1) == q(-3, 2)
    with pytest.raises(ValidationError):
        p - PLPath.constant(2, 0, 2)
    with pytest.raises(TypeError):
        p - 2


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


@st.composite
def path_pair(draw):
    """Two paths on one interval, each with its own interior breakpoints."""
    lo, hi = draw(st.lists(st.fractions(0, 4, max_denominator=8), min_size=2,
                           max_size=2, unique=True).map(sorted))
    inner = st.lists(st.fractions(lo, hi, max_denominator=16), max_size=4)
    return tuple(PLPath([(t, draw(values))
                         for t in sorted({lo, hi, *draw(inner)})])
                 for _ in range(2))


@settings(max_examples=100)
@given(path_pair())
def test_difference_pointwise(pair):
    p1, p2 = pair
    d = p1 - p2
    ts = merge_times(p1.breakpoint_times(), p2.breakpoint_times())
    assert d.breakpoint_times() == ts
    for t in ts:
        assert d.value(t) == p1.value(t) - p2.value(t)
    assert d.min_value() >= p1.min_value() - max(v for _, v in p2.points)


def test_integral_bounds():
    p = _path()
    for t0, t1 in ((q(3, 4), q(1, 4)), (-1, q(1, 2)), (q(1, 2), 2), (-2, -1)):
        with pytest.raises(ValidationError):
            p.integral(t0, t1)
    # bounds are read as exact actions; zero width gives an exact zero,
    # even off the domain
    with pytest.raises(ValidationError):
        p.integral(0.25, 0.5)
    assert p.integral("1/4", "3/4") == q(3, 8)
    for t in (q(1, 2), 5):
        got = p.integral(t, t)
        assert got == 0 and type(got) is Fraction


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


# Large denominators and crossing times.  Each result is compared with the
# textbook expression v0 + (v1 - v0)·(t - t0)/(t1 - t0), evaluated here on
# the piece holding t (a breakpoint gives its own value), by type and repr.

BIG = 10 ** 9
big_times = st.lists(st.fractions(-4, 4, max_denominator=BIG),
                     min_size=2, max_size=6, unique=True).map(sorted)
big_values = st.fractions(-3, 3, max_denominator=BIG)


def _textbook(points, t):
    for (t0, v0), (t1, v1) in zip(points, points[1:]):
        if t == t0:
            return v0
        if t0 < t < t1:
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    assert t == points[-1][0]
    return points[-1][1]


def _bits(xs):
    return [(type(x), repr(x)) for x in xs]


@st.composite
def big_path_pair(draw):
    """Two exact paths on one interval, with denominators up to 10**9."""
    ts1, ts2 = draw(big_times), draw(big_times)
    lo, hi = ts1[0], ts1[-1]
    ts2 = sorted({lo, hi} | {t for t in ts2 if lo < t < hi})
    return (PLPath([(t, draw(big_values)) for t in ts1]),
            PLPath([(t, draw(big_values)) for t in ts2]))


def _check_values(p, ts):
    expected = [_textbook(p.points, t) for t in ts]
    assert _bits(p.values_at(ts)) == _bits(expected)
    assert _bits([p.value(t) for t in ts]) == _bits(expected)


def _check_difference(p1, p2):
    ts = merge_times(p1.breakpoint_times(), p2.breakpoint_times())
    got = p1 - p2
    expected = [_textbook(p1.points, t) - _textbook(p2.points, t) for t in ts]
    assert got.breakpoint_times() == ts
    assert _bits(v for _, v in got.points) == _bits(expected)
    # the merge keeps the given time objects
    assert all(any(t is s for s, _ in p1.points + p2.points)
               for t in got.breakpoint_times())


@settings(max_examples=150)
@given(big_path_pair(), st.data())
def test_big_denominators_match_textbook(pair, data):
    p1, p2 = pair
    _check_difference(p1, p2)
    inner = data.draw(st.lists(
        st.fractions(p1.t_start, p1.t_end, max_denominator=BIG),
        max_size=8))
    # the crossing times replay samples at: exact roots of the difference
    roots, flats = (p1 - p2).zeros()
    for r in roots:
        assert type(r) is Fraction and p1.value(r) == p2.value(r)
    for a, b in flats:
        assert p1.value(a) == p2.value(a) and p1.value(b) == p2.value(b)
    ts = sorted(inner + roots + p1.breakpoint_times() + p2.breakpoint_times())
    _check_values(p1, ts)
    _check_values(p2, ts)
    assert all(type(v) is Fraction for v in p1.values_at(ts))
    # every sign change of the difference has a root on its piece
    d = p1 - p2
    for t0, v0, t1, v1 in d.pieces():
        if v0 * v1 < 0:
            assert any(t0 < r < t1 for r in roots)


@settings(max_examples=100)
@given(big_path_pair(), st.data())
def test_int_times_read_as_fractions(pair, data):
    # an int time is read by as_integer_ratio() like the equal Fraction
    p, _ = pair
    ints = list(range(math.ceil(p.t_start), math.floor(p.t_end) + 1))
    inner = data.draw(st.lists(
        st.fractions(p.t_start, p.t_end, max_denominator=BIG), max_size=4))
    ts = sorted(ints + inner + p.breakpoint_times())
    got = p.values_at(ts)
    assert got == p.values_at([q(t) for t in ts])
    assert all(type(v) is Fraction for v in got)
