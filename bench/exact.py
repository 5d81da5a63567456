"""Exact arithmetic and elimination owned by the benchmark.

Input construction and the oracles use these helpers instead of
``chordbars.fields`` / ``chordbars.linalg``, so an oracle that agrees with
the library is evidence and a change to the library cannot change a pinned
input.  Values are ``int`` residues for F_p and ``Fraction`` for Q.
"""

from fractions import Fraction


class Arith:
    """Field arithmetic for characteristic 0 (Q) or a prime p."""

    def __init__(self, char):
        self.char = char
        self.zero = Fraction(0) if char == 0 else 0
        self.one = Fraction(1) if char == 0 else 1

    @classmethod
    def from_tag(cls, tag):
        return cls(0 if tag == "Q" else int(tag[1:]))

    def value(self, text):
        """Read a coefficient written as an integer or a rational string."""
        x = Fraction(text)
        if self.char == 0:
            return x
        return x.numerator * pow(x.denominator, self.char - 2, self.char) \
            % self.char

    def add(self, x, y):
        return (x + y) % self.char if self.char else x + y

    def mul(self, x, y):
        return (x * y) % self.char if self.char else x * y

    def neg(self, x):
        return (-x) % self.char if self.char else -x

    def inv(self, x):
        return pow(x, self.char - 2, self.char) if self.char else 1 / x

    def elements(self):
        return list(range(self.char))


def row_reduce(rows, ar):
    """Reduced echelon basis of the span of ``rows`` (list of lists).

    Returns a dict pivot column -> row with a unit pivot; the number of
    entries is the rank.
    """
    def minus(x_row, f, y_row):
        return [ar.add(x, ar.neg(ar.mul(f, y))) for x, y in zip(x_row, y_row)]

    basis = {}
    for vec in rows:
        v = list(vec)
        for p in sorted(basis):
            if v[p]:
                v = minus(v, v[p], basis[p])
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is None:
            continue
        c = ar.inv(v[lead])
        v = [ar.mul(c, x) for x in v]
        for p, row in basis.items():
            if row[lead]:
                basis[p] = minus(row, row[lead], v)
        basis[lead] = v
    return basis


class Span:
    """Growing span of vectors kept in echelon form, keyed by pivot."""

    def __init__(self, ar):
        self.ar = ar
        self.rows = {}

    def add(self, vec):
        """Add a vector; True when the dimension grew."""
        ar = self.ar
        v = list(vec)
        for j in range(len(v)):
            if not v[j]:
                continue
            row = self.rows.get(j)
            if row is None:
                c = ar.inv(v[j])
                self.rows[j] = [ar.mul(c, x) for x in v]
                return True
            f = v[j]
            v = [ar.add(x, ar.neg(ar.mul(f, y))) for x, y in zip(v, row)]
        return False

    def __len__(self):
        return len(self.rows)


def kernel(matrix, ncols, ar):
    """Basis of {x : matrix x = 0} for a list-of-rows matrix."""
    basis = row_reduce(matrix, ar)
    pivots = sorted(basis)
    out = []
    for free in range(ncols):
        if free in basis:
            continue
        v = [ar.zero] * ncols
        v[free] = ar.one
        for p in pivots:
            if basis[p][free]:
                v[p] = ar.neg(basis[p][free])
        out.append(v)
    return out
