"""Exact linear algebra over the coefficient fields.

Dense matrices are plain lists of row lists holding *raw* field values (see
``fields``), reduced by straight Gaussian elimination, kept exact, for
:func:`kernel` and the tests' reference oracles.  :func:`kernel` is the one
place a kernel of sparse columns (boundary rows, chord-word images) is
computed, and :class:`RankAccumulator` reduces sparse ``{key: raw}``
vectors as they are.  Sparse sums live in :meth:`fields.Field.add_scaled`.
"""

from .errors import ValidationError


def zeros(nrows, ncols, field):
    z = field.zero_raw
    return [[z] * ncols for _ in range(nrows)]


def matmul(A, B, field):
    n, k = len(A), len(B)
    if any(len(row) != k for row in A):
        raise ValidationError("matmul: inner dimensions disagree")
    m = len(B[0]) if B else 0
    out = zeros(n, m, field)
    for i in range(n):
        Ai, Oi = A[i], out[i]
        for t in range(k):
            a = Ai[t]
            if not a:
                continue
            Bt = B[t]
            for j in range(m):
                b = Bt[j]
                if b:
                    Oi[j] = field.add(Oi[j], field.mul(a, b))
    return out


def rref(M, field):
    """Reduced row echelon form (a copy) plus the pivot column list."""
    R = [row[:] for row in M]
    nrows = len(R)
    ncols = len(R[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        # find a pivot row at or below r
        pr = None
        for i in range(r, nrows):
            if R[i][c]:
                pr = i
                break
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = field.inv(R[r][c])
        if inv != field.one_raw:
            R[r] = [field.mul(inv, x) for x in R[r]]
        for i in range(nrows):
            if i != r and R[i][c]:
                f = R[i][c]
                Rr = R[r]
                R[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(R[i], Rr)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return R, pivots


def rank(M, field):
    return len(rref(M, field)[1])


def nullspace(M, field, ncols=None):
    """Basis of the right kernel, as a list of column vectors.

    ``ncols`` must be supplied when M has no rows (the kernel is everything
    but an empty matrix cannot carry its own width).
    """
    nrows = len(M)
    if ncols is None:
        ncols = len(M[0]) if nrows else 0
    if nrows == 0:
        return [[field.one_raw if i == j else field.zero_raw for i in range(ncols)]
                for j in range(ncols)]
    R, pivots = rref(M, field)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [field.zero_raw] * ncols
        v[free] = field.one_raw
        for r, pc in enumerate(pivots):
            if R[r][free]:
                v[pc] = field.neg(R[r][free])
        basis.append(v)
    return basis


def kernel(columns, field):
    """Kernel basis of the matrix whose columns are sparse {row: raw} maps.

    Rows are numbered in order of first appearance; the reduced row echelon
    form does not depend on row order, so the basis equals that of
    :func:`nullspace` on the dense matrix with any row order.  Vectors are
    dense, one entry per column.
    """
    index = {}
    for col in columns:
        for k in col:
            index.setdefault(k, len(index))
    M = zeros(len(index), len(columns), field)
    for j, col in enumerate(columns):
        for k, c in col.items():
            M[index[k]][j] = c
    return nullspace(M, field, ncols=len(columns))


class RankAccumulator:
    """Incremental rank of a growing list of sparse ``{key: raw}`` vectors.

    Rows are kept reduced and keyed by their least key, so each vector costs
    one elimination pass and the rank after every prefix of the stream is
    read off for free.  The definitional barcode oracle feeds one column
    stream per projection of a boundary matrix, in action order.
    """

    __slots__ = ("field", "rows")

    def __init__(self, field):
        self.field = field
        self.rows = {}  # least key -> row with coefficient 1 there

    @property
    def rank(self):
        return len(self.rows)

    def add(self, vec):
        """Reduce a copy of vec by the stored rows; True if the rank grew."""
        field = self.field
        v = dict(vec)
        while v:
            j = min(v)
            row = self.rows.get(j)
            if row is None:
                inv = field.inv(v[j])
                self.rows[j] = {k: field.mul(inv, x) for k, x in v.items()}
                return True
            # row's keys are j and larger ones, so v's least key grows
            field.add_scaled(v, row, field.neg(v[j]))
        return False
