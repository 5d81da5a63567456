"""Exact elimination: rref, rank, nullspace and the incremental rank over
all three fields."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chordbars import F2, FP, QQ, random_complex
from chordbars.errors import ValidationError
from chordbars.linalg import (RankAccumulator, kernel, matmul, nullspace, rank,
                              rref, zeros)

FIELDS = [F2, FP(5), QQ]


def _mat(F, rows):
    return [[F.coerce(x) for x in r] for r in rows]


def test_rank_frozen():
    M = _mat(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(M, QQ) == 2
    # the same integer matrix collapses further mod 2
    M2 = _mat(F2, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(M2, F2) == 2
    assert rank(_mat(F2, [[1, 1], [1, 1]]), F2) == 1
    assert rank(zeros(3, 4, QQ), QQ) == 0
    assert rank([], QQ) == 0


def test_rref_pivots_and_form():
    M = _mat(QQ, [[0, 2, 4], [1, 1, 1]])
    R, pivots = rref(M, QQ)
    assert pivots == [0, 1]
    assert R == _mat(QQ, [[1, 0, -1], [0, 1, 2]])


def test_nullspace_frozen():
    M = _mat(QQ, [[1, 2, 3], [2, 4, 6]])
    basis = nullspace(M, QQ, ncols=3)
    assert len(basis) == 2
    # an empty matrix needs its width spelled out
    assert len(nullspace([], QQ, ncols=4)) == 4


def _apply(M, v, F):
    return [_dot(row, v, F) for row in M]


def _dot(row, v, F):
    acc = F.zero_raw
    for a, b in zip(row, v):
        acc = F.add(acc, F.mul(a, b))
    return acc


@st.composite
def matrices(draw):
    F = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    M = [[F.coerce(draw(st.integers(-6, 6))) for _ in range(ncols)]
         for _ in range(nrows)]
    return F, M


@settings(max_examples=120)
@given(matrices())
def test_rank_nullity(fm):
    F, M = fm
    ncols = len(M[0])
    basis = nullspace(M, F, ncols=ncols)
    assert rank(M, F) + len(basis) == ncols
    for v in basis:
        assert all(x == F.zero_raw for x in _apply(M, v, F))
    # basis vectors are independent
    assert rank(basis, F) == len(basis) if basis else True


@settings(max_examples=80)
@given(matrices())
def test_rref_idempotent(fm):
    F, M = fm
    R, pivots = rref(M, F)
    R2, pivots2 = rref(R, F)
    assert R == R2 and pivots == pivots2
    assert rank(M, F) == len(pivots)


@settings(max_examples=120)
@given(matrices(), st.randoms(use_true_random=False))
def test_kernel_of_sparse_columns_matches_nullspace(fm, rnd):
    F, M = fm
    ncols = len(M[0])
    # sparse columns keyed by row label, labels inserted in shuffled order
    labels = ["r%d" % i for i in range(len(M))]
    order = list(range(len(M)))
    rnd.shuffle(order)
    columns = [{labels[i]: M[i][j] for i in order if M[i][j]}
               for j in range(ncols)]
    want = nullspace(M, F, ncols=ncols)
    assert kernel(columns, F) == want
    rows = sorted({k for col in columns for k in col})
    dense = [[col.get(r, F.zero_raw) for col in columns] for r in rows]
    assert nullspace(dense, F, ncols=ncols) == want


def test_kernel_edge_cases():
    # all-zero columns: the kernel is everything
    assert kernel([{}, {}], QQ) == [[1, 0], [0, 1]]
    assert kernel([], F2) == []
    assert kernel([{"x": 1}, {"x": 1}], F2) == [[1, 1]]


@st.composite
def vector_streams(draw):
    """Vectors of one length (possibly 0), some of them all zero."""
    F = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(0, 5))
    vec = st.lists(st.integers(-3, 3).map(F.coerce), min_size=n, max_size=n)
    vecs = draw(st.lists(st.one_of(st.just([F.zero_raw] * n), vec),
                         max_size=7))
    return F, vecs


@settings(max_examples=150)
@given(vector_streams(), st.data())
def test_rank_accumulator_matches_rank(fv, data):
    F, vecs = fv
    for stream in (vecs, data.draw(st.permutations(vecs))):
        acc = RankAccumulator(F)
        for i, v in enumerate(stream):
            sparse = {j: x for j, x in enumerate(v) if x}
            fed = dict(sparse)
            grew = acc.add(sparse)
            assert sparse == fed  # the caller's vector is left alone
            assert acc.rank == rank(stream[:i + 1], F)
            assert grew == (acc.rank > rank(stream[:i], F))


def test_rank_accumulator_reads_id_keyed_rows():
    # the oracle feeds ``differential_raw`` rows keyed by generator id; the
    # ids' string order is not the action order the rows came in
    for seed in range(40):
        rng = random.Random(seed)
        F = rng.choice(FIELDS)
        cx = random_complex(rng, F, max_generators=16)
        for d in cx.degrees():
            ids = [g.id for g in cx.generators if g.degree == d - 1]
            rows = [cx.differential_raw(g.id) for g in cx.generators
                    if g.degree == d]
            dense = [[row.get(gid, F.zero_raw) for gid in ids]
                     for row in rows]
            acc = RankAccumulator(F)
            for i, row in enumerate(rows):
                acc.add(row)
                assert acc.rank == rank(dense[:i + 1], F)


def test_matmul_shape_is_a_typed_error():
    with pytest.raises(ValidationError):
        matmul([[1, 0]], [[1, 0]], QQ)


def test_fraction_exactness():
    # a pathological-for-floats matrix stays exact
    M = [[Fraction(1, 10 ** k) for k in range(1, 5)]]
    assert rank(M, QQ) == 1
    basis = nullspace(M, QQ, ncols=4)
    assert len(basis) == 3
    for v in basis:
        assert _dot(M[0], v, QQ) == 0


def test_seeded_random_consistency():
    rng = random.Random(42)
    for _ in range(50):
        F = rng.choice(FIELDS)
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        M = [[F.random_raw(rng) for _ in range(m)] for _ in range(n)]
        assert rank(M, F) + len(nullspace(M, F, ncols=m)) == m
