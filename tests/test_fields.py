"""Coefficient arithmetic: exactness, canonical residues, field laws."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from chordbars import F2, FP, QQ, Field, Scalar
from chordbars.errors import (BadCharacteristic, FieldMismatch, NotInvertible,
                              ParseError)

FIELDS = [F2, FP(5), QQ]


def test_singletons_and_tags():
    assert Field(2) is F2
    assert Field(0) is QQ
    assert FP(5) is Field(5)
    assert (F2.tag, FP(5).tag, QQ.tag) == ("F2", "F5", "Q")
    assert Field.parse("F7") is FP(7)
    assert Field.parse(" QQ ") is QQ
    assert Field.parse("Q") is QQ


def test_parse_rejections():
    with pytest.raises(ParseError):
        Field.parse("R")
    with pytest.raises(ParseError):
        Field.parse("F-3")
    with pytest.raises(ParseError):
        Field.parse(7)
    # an F tag is ASCII digits with no leading zero: no Q behind "F0",
    # no F2 behind "F02", no F3 behind an Arabic-Indic three
    for tag in ("F0", "F00", "F02", "F\u0663", "F\u00b2"):
        with pytest.raises(ParseError):
            Field.parse(tag)
    with pytest.raises(BadCharacteristic):
        Field.parse("F9")
    with pytest.raises(BadCharacteristic):
        Field(561)  # Carmichael number, catches weak primality tests


def test_large_prime_characteristic():
    p = 2 ** 61 - 1  # Mersenne prime
    F = FP(p)
    assert F.inv(2) == (p + 1) // 2
    assert F.mul(F.inv(2), 2) == 1


def test_coerce():
    assert F2.coerce(7) == 1
    assert FP(5).coerce(-1) == 4
    assert FP(5).coerce("3/4") == FP(5).div(3, 4)
    assert QQ.coerce("3/4") == Fraction(3, 4)
    assert QQ.coerce(2) == Fraction(2)
    for F in FIELDS:
        with pytest.raises(ParseError):
            F.coerce(True)
        with pytest.raises(ParseError):
            F.coerce(0.5)
        with pytest.raises(ParseError):
            F.coerce("zebra")


def test_format_roundtrip():
    for F in FIELDS:
        for raw in ([0, 1] if F.char else [Fraction(-3, 4), Fraction(2)]):
            assert F.coerce(F.format(raw)) == raw


def test_zero_division():
    for F in FIELDS:
        with pytest.raises(NotInvertible):
            F.inv(F.zero_raw)


def test_elements_enumeration():
    assert list(FP(5).elements()) == [0, 1, 2, 3, 4]
    assert list(F2.elements()) == [0, 1]
    with pytest.raises(ValueError):
        QQ.elements()


def test_scalar_ops_and_mismatch():
    a = FP(5).scalar(3)
    b = FP(5).scalar(4)
    assert (a + b).value == 2
    assert (a - b).value == 4
    assert (a * b).value == 2
    assert (a / b).value == FP(5).div(3, 4)
    assert (-a).value == 2
    assert a.inverse().value == 2
    assert bool(FP(5).zero) is False and FP(5).zero.is_zero
    with pytest.raises(FieldMismatch):
        a + QQ.scalar(1)


@given(st.sampled_from(FIELDS), st.integers(-30, 30), st.integers(-30, 30),
       st.integers(-30, 30))
def test_field_laws(F, x, y, z):
    x, y, z = F.coerce(x), F.coerce(y), F.coerce(z)
    assert F.add(x, y) == F.add(y, x)
    assert F.mul(x, y) == F.mul(y, x)
    assert F.add(F.add(x, y), z) == F.add(x, F.add(y, z))
    assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))
    assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
    assert F.add(x, F.neg(x)) == F.zero_raw
    assert F.sub(x, y) == F.add(x, F.neg(y))
    if y != F.zero_raw:
        assert F.mul(F.div(x, y), y) == x


@given(st.sampled_from(FIELDS), st.integers(0, 2 ** 32))
def test_random_raw_canonical(F, seed):
    rng = random.Random(seed)
    raw = F.random_raw(rng)
    assert F.coerce(raw) == raw  # already in canonical form
    unit = F.random_unit_raw(rng)
    assert unit != F.zero_raw


def test_canonical_residues():
    # prime-field raws always live in [0, p)
    rng = random.Random(7)
    F = FP(11)
    for _ in range(200):
        x, y = F.random_raw(rng), F.random_raw(rng)
        for v in (F.add(x, y), F.sub(x, y), F.mul(x, y), F.neg(x)):
            assert 0 <= v < 11


@pytest.mark.parametrize("field, x, y", [
    (F2, 1, 1),                                # x + x over F2
    (FP(5), 2, 3),                             # 2 + 3 over F5
    (QQ, Fraction(1, 2), Fraction(-1, 2)),     # 1/2 - 1/2 over Q
])
def test_add_scaled_drops_cancelled_keys(field, x, y):
    one = field.one_raw
    chain = {"a": field.coerce(x), "b": one}
    field.add_scaled(chain, {"a": field.coerce(y), "c": one}, one)
    assert chain == {"b": one, "c": one}
    # a zero scale or zero entries never store a zero
    field.add_scaled(chain, {"d": one}, field.zero_raw)
    field.add_scaled(chain, {"e": field.zero_raw}, one)
    assert chain == {"b": one, "c": one}


@given(st.sampled_from(FIELDS), st.data())
def test_add_scaled_is_sparse_axpy(field, data):
    keys = st.sampled_from("abcd")
    raw = st.integers(-6, 6).map(field.coerce)
    chain = {k: v for k, v in data.draw(st.dictionaries(keys, raw)).items() if v}
    other = data.draw(st.dictionaries(keys, raw))
    c = data.draw(raw)
    want = {}
    for k in "abcd":
        v = field.add(chain.get(k, field.zero_raw),
                      field.mul(c, other.get(k, field.zero_raw)))
        if v:
            want[k] = v
    field.add_scaled(chain, other, c)
    assert chain == want
    assert all(chain.values())
