"""Exact coefficient arithmetic over F2, F_p and Q.

A field element is a raw value and nothing else: an ``int`` in ``[0, p)``
for prime fields (canonical residue) and a ``fractions.Fraction`` (always
in lowest terms, that class keeps the invariant for us) for the rationals.
A :class:`Field` carries no elements; its methods do the arithmetic on raw
values and :meth:`Field.coerce` turns input (int, str, Fraction) into one;
it and :meth:`Field.parse` own their rules, and :mod:`chordbars.schemas`
only adds the JSON path.  Everything is exact; floats never appear.
Scalar and action strings (:func:`chordbars.complexes.as_action`) share
one reader, which refuses a value with more digits than ``int()`` reads
and ``str()`` prints; every id (a generator, a reference, a chord label
or letter, a key) has one reader too, :func:`chordbars.complexes.as_id`.
Printed values (:meth:`Field.format`,
:func:`chordbars.barcodes.format_action`) share one writer, which refuses
a computed value with more digits than ``str()`` prints; every message
and check detail prints a computed rational through it.

Sparse chains are ``{key: raw}`` dicts that never store a zero: boundaries
of filtered complexes, words of chord algebras, reduction columns.
:meth:`Field.add_scaled` (chain += c·other) is the one place such a chain
is accumulated; every module routes its sparse sums through it.
"""

import re
import sys
from fractions import Fraction

from .errors import (BadCharacteristic, NotInvertible, ParseError,
                     ValidationError)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# plain rational strings (a nonzero denominator) are read with int(); every
# other string goes to Fraction's parser, which decides what else is read
_PLAIN = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?")
_EXPONENT = re.compile(r"e([-+]?\d[\d_]*)\s*\Z", re.IGNORECASE)


def _parse_rational(text):
    """Fraction's reading of a string, refusing (ValueError) a value with
    more digits than ``int()`` reads and ``str()`` prints.  An exponent
    beyond three times that limit is refused before Fraction computes its
    power of ten: its mantissa has at most twice the limit in digits, so
    any nonzero value it gives is over the limit too."""
    m = _PLAIN.fullmatch(text)
    if m:
        return Fraction(int(m[1]), int(m[2] or 1))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    exponent = _EXPONENT.search(text)
    if limit and exponent and abs(int(exponent[1])) > 3 * limit:
        raise ValueError("more than %d digits" % limit)
    q = Fraction(text)
    if limit and max(abs(q.numerator), q.denominator) >= 10 ** limit:
        raise ValueError("more than %d digits" % limit)
    return q


def _format_rational(x):
    """``str()`` of an int or Fraction; a value with more digits than
    ``str()`` prints raises ValidationError naming the limit."""
    try:
        return str(x)
    except ValueError:
        raise _unprintable() from None


def _unprintable():
    """The error of a value with more digits than ``str()`` prints."""
    return ValidationError("cannot print a value with more than %d digits"
                           % sys.get_int_max_str_digits())


def _is_prime(n):
    # deterministic Miller-Rabin; the base set above is exact below 3.3e24,
    # far beyond any characteristic anyone will pass in.
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """A coefficient field: characteristic 0 means Q, a prime p means F_p."""

    __slots__ = ("char", "zero_raw", "one_raw")
    _cache = {}

    def __new__(cls, char=0):
        if char in cls._cache:
            return cls._cache[char]
        if char != 0 and not _is_prime(char):
            raise BadCharacteristic("characteristic must be 0 or a prime, got %r" % (char,))
        self = object.__new__(cls)
        self.char = char
        self.zero_raw, self.one_raw = (Fraction(0), Fraction(1)) if char == 0 else (0, 1)
        cls._cache[char] = self
        return self

    # construction / naming --------------------------------------------------

    @classmethod
    def parse(cls, tag):
        """Parse a field tag: "Q", "F2", "F7", ..."""
        if not isinstance(tag, str):
            raise ParseError("field tag must be a string, got %r" % (tag,))
        t = tag.strip()
        if t in ("Q", "QQ"):
            return cls(0)
        p = t[1:]
        if t[:1] == "F" and p.isascii() and p.isdigit() and p[0] != "0":
            try:
                return cls(int(p))
            except ValueError:  # more digits than int() reads
                pass
        raise ParseError("unrecognized field tag %r" % (tag,))

    @property
    def tag(self):
        return "Q" if self.char == 0 else "F%d" % self.char

    def __repr__(self):
        return "Field(%s)" % self.tag

    def __reduce__(self):  # pickling keeps the singleton property
        return (Field, (self.char,))

    # raw-value arithmetic -----------------------------------------------------
    # Raw values: int residue in [0, char) for F_p, Fraction for Q.

    def coerce(self, value):
        """Normalize value (int, str or Fraction) to a raw value."""
        if isinstance(value, bool):
            raise ParseError("booleans are not scalars")
        if isinstance(value, str):
            try:
                value = _parse_rational(value.strip())
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError("cannot parse scalar %r: %s" % (value, exc))
        if self.char == 0:
            if isinstance(value, (int, Fraction)):
                return Fraction(value)
            raise ParseError("cannot coerce %r into Q" % (value,))
        if isinstance(value, int):
            return value % self.char
        if isinstance(value, Fraction):
            # accept rationals whose denominator is invertible mod p
            return self.mul(value.numerator % self.char, self.inv(value.denominator % self.char))
        raise ParseError("cannot coerce %r into %s" % (value, self.tag))

    def format(self, raw):
        """Canonical string form of a raw value ("3", "-3/4")."""
        return _format_rational(raw)

    def add(self, x, y):
        return (x + y) % self.char if self.char else x + y

    def sub(self, x, y):
        return (x - y) % self.char if self.char else x - y

    def mul(self, x, y):
        return (x * y) % self.char if self.char else x * y

    def neg(self, x):
        return (-x) % self.char if self.char else -x

    def inv(self, x):
        if not x:
            raise NotInvertible("division by zero in %s" % self.tag)
        if self.char == 0:
            return 1 / x
        return pow(x, self.char - 2, self.char)

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def add_scaled(self, chain, other, c):
        """chain += c·other in place over sparse {key: raw} maps; a key
        whose coefficient cancels is removed, so no zero is ever stored."""
        p = self.char
        zero = self.zero_raw
        for k, x in other.items():
            y = chain.get(k, zero) + c * x
            if p:
                y %= p
            if y:
                chain[k] = y
            else:
                chain.pop(k, None)

    # sampling / enumeration -----------------------------------------------------

    def elements(self):
        """All raw values; only finite fields can be enumerated."""
        if self.char == 0:
            raise ValueError("Q has infinitely many elements")
        return range(self.char)

    def random_raw(self, rng):
        if self.char:
            return rng.randrange(self.char)
        # small-height rationals keep fixture arithmetic readable and fast
        return Fraction(rng.randint(-4, 4), rng.randint(1, 4))

    def random_unit_raw(self, rng):
        while True:
            x = self.random_raw(rng)
            if x:
                return x

    def random_combination(self, rng, keys, vectors, coeff):
        """Sparse chain {key: raw} of coeff(rng)·v summed over the dense
        vectors v (indexed like ``keys``), each drawn before its coefficient."""
        chain = {}
        for v in vectors:
            self.add_scaled(chain, dict(zip(keys, v)), coeff(rng))
        return chain


# the two workhorses, prebuilt
F2 = Field(2)
QQ = Field(0)


def FP(p):
    """Prime field of characteristic p."""
    f = Field(p)
    if f.char == 0:
        raise BadCharacteristic("characteristic 0 is Q, use QQ")
    return f
