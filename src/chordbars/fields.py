"""Exact coefficient arithmetic over F2, F_p and Q.

Scalars are tiny wrappers around a raw value: an ``int`` in ``[0, p)`` for
prime fields (canonical residue) and a ``fractions.Fraction`` (always in
lowest terms, that class keeps the invariant for us) for the rationals.
Everything is exact; floats never appear.

The hot loops in the linear algebra kernels work on raw values through the
``Field`` methods and only wrap results into :class:`Scalar` at API
boundaries, which keeps the object churn out of the inner loops.

Sparse chains are ``{key: raw}`` dicts that never store a zero: boundaries
of filtered complexes, words of chord algebras, reduction columns.
:meth:`Field.add_scaled` (chain += c·other) is the one place such a chain
is accumulated; every module routes its sparse sums through it.
"""

from fractions import Fraction

from .errors import BadCharacteristic, FieldMismatch, NotInvertible, ParseError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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

    __slots__ = ("char",)
    _cache = {}

    def __new__(cls, char=0):
        if char in cls._cache:
            return cls._cache[char]
        if char != 0 and not _is_prime(char):
            raise BadCharacteristic("characteristic must be 0 or a prime, got %r" % (char,))
        self = object.__new__(cls)
        self.char = char
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
            return cls(int(p))
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
        """Normalize value (int, str, Fraction or Scalar) to a raw value."""
        if isinstance(value, Scalar):
            if value.field is not self:
                raise FieldMismatch("scalar from %r used in %r" % (value.field, self))
            return value.value
        if isinstance(value, bool):
            raise ParseError("booleans are not scalars")
        if isinstance(value, str):
            try:
                value = Fraction(value.strip())
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
        return str(raw)

    @property
    def zero_raw(self):
        return Fraction(0) if self.char == 0 else 0

    @property
    def one_raw(self):
        return Fraction(1) if self.char == 0 else 1

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

    # scalar wrapping ----------------------------------------------------------

    def scalar(self, value):
        return Scalar(self, self.coerce(value))

    @property
    def zero(self):
        return Scalar(self, self.zero_raw)

    @property
    def one(self):
        return Scalar(self, self.one_raw)

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


class Scalar:
    """An element of a specific :class:`Field`; immutable, hashable."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value

    def _raw(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field:
                raise FieldMismatch("cannot mix %s and %s scalars"
                                    % (self.field.tag, other.field.tag))
            return other.value
        return self.field.coerce(other)

    def __add__(self, other):
        return Scalar(self.field, self.field.add(self.value, self._raw(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return Scalar(self.field, self.field.sub(self.value, self._raw(other)))

    def __rsub__(self, other):
        return Scalar(self.field, self.field.sub(self._raw(other), self.value))

    def __mul__(self, other):
        return Scalar(self.field, self.field.mul(self.value, self._raw(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Scalar(self.field, self.field.div(self.value, self._raw(other)))

    def __rtruediv__(self, other):
        return Scalar(self.field, self.field.div(self._raw(other), self.value))

    def __neg__(self):
        return Scalar(self.field, self.field.neg(self.value))

    def inverse(self):
        return Scalar(self.field, self.field.inv(self.value))

    def __bool__(self):
        return bool(self.value)

    @property
    def is_zero(self):
        return not self.value

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field is other.field and self.value == other.value
        if isinstance(other, (int, Fraction)):
            return self.value == self.field.coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field.char, self.value))

    def __repr__(self):
        return "%s(%s)" % (self.field.tag, self.value)

    def __str__(self):
        return self.field.format(self.value)


# the two workhorses, prebuilt
F2 = Field(2)
QQ = Field(0)


def FP(p):
    """Prime field of characteristic p."""
    f = Field(p)
    if f.char == 0:
        raise BadCharacteristic("characteristic 0 is Q, use QQ")
    return f
