"""Barcodes of filtered complexes.

Two independent computations are provided on purpose:

* :func:`canonical_form` / :func:`barcode_from_canonical` — the standard
  persistence reduction R = D V pairs each killer with the generator it
  cancels, and an action-preserving upper-triangular change of basis read
  off R and V (one valid choice, not a unique one) makes the differential
  map each basis element to zero or to its single partner; the pairs are
  read off as bars, and :func:`check_canonical_form` verifies D G = G T;

* :func:`barcode_definitional` — a literal rank bookkeeping over sublevel
  complexes: the classes born at or below s and alive past e number
  dim Z≤s − rank ∂[:, ≤e] + rank ∂[rows > s, ≤e] (Edelsbrunner & Harer,
  *Computational Topology*, ch. VII), and the bars are read back from
  their differences by :func:`recover`'s table reader.  With exact
  rationals the "sufficiently small epsilon" of one-sided limits needs no
  probe value: each action is replaced by its index among the sorted
  critical values, and "just past level e" is "index at most e".

They share no reduction code; agreement between them is the core oracle test
of the package.
"""

from itertools import accumulate

from .complexes import INF, as_action
from .errors import EngineMismatch, InconsistentTable, ValidationError
from .fields import _format_rational
from .linalg import RankAccumulator


class Bar:
    """Half-open interval [start, end) with optional homological degree."""

    __slots__ = ("start", "end", "degree")

    def __init__(self, start, end, degree=None):
        start = as_action(start)
        end = as_action(end, allow_inf=True)
        if not start < end:
            raise ValidationError("bar needs start < end, got [%s, %s)" % (start, end))
        self.start = start
        self.end = end
        self.degree = degree

    @property
    def is_infinite(self):
        return self.end == INF

    @property
    def length(self):
        return INF if self.is_infinite else self.end - self.start

    @property
    def key(self):
        dk = (0, 0) if self.degree is None else (1, self.degree)
        return (dk, self.start, self.end)

    def astuple(self):
        return (self.start, self.end, self.degree)

    def __eq__(self, other):
        return isinstance(other, Bar) and self.astuple() == other.astuple()

    def __hash__(self):
        return hash(self.astuple())

    def __repr__(self):
        d = "" if self.degree is None else " deg %d" % self.degree
        return "Bar[%s, %s)%s" % (self.start, self.end, d)


class Barcode:
    """Finite multiset of bars; equality is multiset equality.  ``bars`` is
    sorted by :attr:`Bar.key`, which separates any two unequal bars, so
    equal multisets have equal ``bars`` tuples."""

    __slots__ = ("bars",)

    def __init__(self, bars=()):
        self.bars = tuple(sorted(bars, key=lambda b: b.key))

    def __iter__(self):
        return iter(self.bars)

    def __len__(self):
        return len(self.bars)

    def __eq__(self, other):
        return isinstance(other, Barcode) and self.bars == other.bars

    def __repr__(self):
        return "Barcode(%s)" % (list(self.bars),)


# ---------------------------------------------------------------------------
# canonical pairing form
# ---------------------------------------------------------------------------

class BarannikovForm:
    """Result of the pairing reduction.

    ``order`` lists generator ids sorted by (action, id); ``base_change``
    holds the new basis vectors, one sparse column {row index: raw} each,
    of an upper-triangular G over that order with a nonzero diagonal, read
    off R = D V; after the change of basis the differential maps each killer
    to its killed partner with coefficient exactly 1 and every other basis
    vector to 0.  G is one valid such base change, not a unique one; the
    pairs are unique.
    """

    __slots__ = ("field", "order", "base_change", "pairs", "unpaired")

    def __init__(self, field, order, base_change, pairs, unpaired):
        self.field = field
        self.order = tuple(order)
        self.base_change = base_change
        self.pairs = tuple(pairs)
        self.unpaired = tuple(unpaired)


def _reduce(field, order, rows):
    """R = D V over ids sorted by (action, id), ``rows[j]`` the raw boundary
    of ``order[j]``; returns R, V and {killed index: killer index}.

    A degree-d column meets only degree-(d-1) rows and earlier degree-d
    columns, so any order that keeps each degree's ids in (action, id)
    order gives the same pairs of ids (and the same zero columns of R)."""
    index = {gid: i for i, gid in enumerate(order)}
    R, V, killer_of = [], [], {}
    for j, row in enumerate(rows):
        r = {index[tgt]: c for tgt, c in row.items()}
        v = {j: field.one_raw}
        while r:
            i = max(r)
            j2 = killer_of.get(i)
            if j2 is None:
                killer_of[i] = j
                break
            a = field.neg(field.div(r[i], R[j2][i]))
            field.add_scaled(r, R[j2], a)
            field.add_scaled(v, V[j2], a)
        R.append(r)
        V.append(v)
    return R, V, killer_of


def canonical_form(C):
    """Action-preserving reduction of the differential to killer/killed form.

    The standard persistence reduction R = D V over sparse {row: coeff}
    columns: left to right in action order, each column is reduced by
    earlier ones until its lowest entry is unclaimed, and V records the
    column operations.  Column j kills the row i of its lowest entry.  The
    base change takes R_j as the new vector of a killed i and V_m for every
    other m; since D V_j = R_j, D R_j = 0 and D V_m = R_m = 0 otherwise, the
    killer maps to its partner with coefficient exactly 1.
    """
    field = C.field
    order = [g.id for g in C.generators]  # already sorted by (action, id)
    R, V, killer_of = _reduce(field, order,
                              [C.differential_raw(gid) for gid in order])
    n = len(order)
    G = [R[killer_of[m]] if m in killer_of else V[m] for m in range(n)]
    pairs = [(order[j], order[i]) for i, j in killer_of.items()]
    unpaired = [order[m] for m in range(n) if not R[m] and m not in killer_of]
    return BarannikovForm(field, order, G, pairs, unpaired)


def check_canonical_form(C, F):
    """Raise EngineMismatch unless F is a killer/killed normal form of C.

    Checks that F pairs or leaves unpaired each generator of C exactly once,
    that each sparse column g_m of G = ``F.base_change`` has its largest key
    at m with a nonzero entry (G is upper-triangular with a nonzero
    diagonal: action-preserving and invertible), and D G = G T column by
    column: D g_m, summed over g_m's entries, is g_i when m kills i and 0
    otherwise.  The error names the generator.
    """
    field, G, order = F.field, F.base_change, F.order
    n = len(order)
    if list(order) != [g.id for g in C.generators]:
        raise EngineMismatch("canonical form order %r is not the complex's"
                             % (order,))
    index = {gid: i for i, gid in enumerate(order)}
    covered = [g for pair in F.pairs for g in pair] + list(F.unpaired)
    if sorted(index.get(g, -1) for g in covered) != list(range(n)):
        raise EngineMismatch("canonical form does not pair or leave unpaired "
                             "each generator exactly once")
    partner = {index[k]: index[d] for k, d in F.pairs}
    for m, gid in enumerate(order):
        col = G[m]
        if not col.get(m) or max(col) != m:
            raise EngineMismatch("base change column of %r is not upper-"
                                 "triangular with a nonzero diagonal" % (gid,))
        image = {}
        for r, c in col.items():
            field.add_scaled(image, C.differential_raw(order[r]), c)
        p = partner.get(m)
        want = {} if p is None else {order[r]: c for r, c in G[p].items()}
        if image != want:
            raise EngineMismatch("base change breaks D G = G T at generator %r" % (gid,))


def barcode_from_canonical(F, C):
    """Read the barcode off a canonical form of C."""
    bars = []
    for killer, killed in F.pairs:
        gk = C.generator(killer)
        gd = C.generator(killed)
        bars.append(Bar(gd.action, gk.action, gd.degree))
    for gid in F.unpaired:
        g = C.generator(gid)
        bars.append(Bar(g.action, INF, g.degree))
    return Barcode(bars)


# ---------------------------------------------------------------------------
# definitional oracle
# ---------------------------------------------------------------------------

def barcode_definitional(C):
    """Barcode straight from sublevel rank bookkeeping (independent oracle).

    Per degree d, W(s, e) = number of degree-d classes born at or below s
    and still alive just past e = dim Z_{<=s} - dim(B_{<=e} ∩ C_{<=s}).
    With ∂ the boundary from degree d + 1, B_{<=e} ∩ C_{<=s} is the kernel
    of projecting B_{<=e} onto the rows above s, so

        W(s, e) = dim Z_{<=s} - rank ∂[:, <=e] + rank ∂[rows > s, <=e].

    Differences of W over consecutive start levels count the bars born
    exactly at s and alive past each e; the table reader behind
    :func:`recover` checks that table and reads the bars back.  Levels are
    indices into the critical values, numbered in one walk of the generators
    in (action, id) order, so "alive just past e" is a comparison of ints,
    with no probe between two actions.  Each projection's rank stream stops
    at full row rank.
    """
    field = C.field
    bars = []
    for d in C.degrees():
        # degree-d and degree-(d+1) generators and their level indices, in
        # action order, and the critical values of the two degrees
        cols_d, cols_up, d_lv, up_lv, crit = [], [], [], [], []
        for g in C.generators:
            if g.degree == d:
                cols, lv = cols_d, d_lv
            elif g.degree == d + 1:
                cols, lv = cols_up, up_lv
            else:
                continue
            if not crit or g.action != crit[-1]:
                crit.append(g.action)
            cols.append(g)
            lv.append(len(crit) - 1)
        k, nd = len(crit), len(cols_d)
        # boundary columns from degree d + 1, rows keyed by index in cols_d
        row_of = {g.id: i for i, g in enumerate(cols_d)}
        up_cols = [{row_of[t]: c for t, c in C.differential_raw(g.id).items()}
                   for g in cols_up]
        # nonzero columns with their level and last row; a column whose last
        # row is below m meets no row >= m
        stream = [(col, e, max(col)) for col, e in zip(up_cols, up_lv) if col]

        def ranks_from_row(m):
            """rank ∂[rows >= m, <= e] for every critical level e."""
            acc, grew, free = RankAccumulator(field), [0] * k, nd - m
            for col, e, last in stream:
                if not free:
                    break  # full row rank: no later column adds to it
                if last >= m and acc.add({i: c for i, c in col.items()
                                          if i >= m}):
                    grew[e] += 1
                    free -= 1
            return list(accumulate(grew))

        dimB = ranks_from_row(0)
        accZ, m, W_prev = RankAccumulator(field), 0, [0] * k
        table = [[0] * k for _ in range(k)]
        for j in range(k):
            if m == nd or d_lv[m] != j:
                continue  # no degree-d generator starts at level j
            while m < nd and d_lv[m] == j:
                accZ.add(C.differential_raw(cols_d[m].id))
                m += 1
            z = m - accZ.rank
            W = [z - b + r for b, r in zip(dimB, ranks_from_row(m))]
            # row j: bars born exactly at level j, alive past level e >= j
            table[j][j:] = [w - wp for w, wp in zip(W[j:], W_prev[j:])]
            W_prev = W
        bars.extend(Bar(s, e, d) for s, e in _table_bars(crit, table))
    return Barcode(bars)


def barcode_of(C, engine="canonical"):
    """Barcode of a complex; engine one of canonical|definitional|both."""
    if engine == "canonical":
        return barcode_from_canonical(canonical_form(C), C)
    if engine == "definitional":
        return barcode_definitional(C)
    if engine == "both":
        F = canonical_form(C)
        check_canonical_form(C, F)
        b1 = barcode_from_canonical(F, C)
        b2 = barcode_definitional(C)
        if b1 != b2:
            raise EngineMismatch(
                "reduction and definitional engines disagree: %r vs %r" % (b1, b2))
        return b1
    raise ValidationError("unknown engine %r" % (engine,))


# ---------------------------------------------------------------------------
# table extraction and recovery
# ---------------------------------------------------------------------------

def extract_table(B):
    """Critical values and the persisting-count table of a barcode.

    crit lists every start and finite end in increasing order; entry [j][i]
    counts the bars starting exactly at crit[j] that are still alive just
    past crit[i], that is the bars [crit[j], e) with e > crit[i] (every
    infinite bar for each i >= j).  This is the data :func:`recover` reads.
    """
    ends = {b.end for b in B.bars}
    ends.discard(INF)
    crit = sorted({b.start for b in B.bars} | ends)
    k = len(crit)
    level = {a: i for i, a in enumerate(crit)}
    level[INF] = k
    table = [[0] * k for _ in range(k)]
    for b in B.bars:
        j = level[b.start]
        row = table[j]
        for i in range(j, level[b.end]):
            row[i] += 1
    return crit, table


def recover(critical_values, table):
    """Rebuild the interval multiset from a persisting-count table.

    Inverse of :func:`extract_table`; the output is degree-agnostic (bars
    carry degree None).  Unordered critical values and malformed tables
    raise InconsistentTable.
    """
    crit = [as_action(c) for c in critical_values]
    if not all(a < b for a, b in zip(crit, crit[1:])):
        raise InconsistentTable("critical values must be strictly increasing")
    return Barcode(Bar(s, e) for s, e in _table_bars(crit, table))


def _table_bars(crit, table):
    """Yield (start, end) for each bar a persisting-count table holds over
    the increasing levels crit (end INF for a bar alive past the top).

    Raises InconsistentTable for a table that is not k x k, a count that is
    not an int (bool included), a negative count, a count below its start's
    level, or a count that increases along a row.  Each row is checked
    whole; a row that fails is walked entry by entry for the first error.
    """
    k = len(crit)
    if len(table) != k or any(len(row) != k for row in table):
        raise InconsistentTable("table must be %d x %d" % (k, k))
    for j in range(k):
        row = table[j]
        if not ({int}.issuperset(map(type, row)) and min(row) >= 0
                and not any(row[:j])):
            for i, v in enumerate(row):
                if isinstance(v, bool) or not isinstance(v, int):
                    raise InconsistentTable(
                        "count at (%d, %d) must be an integer, got %r" % (j, i, v))
                if v < 0:
                    raise InconsistentTable("negative count at (%d, %d)" % (j, i))
                if i < j and v != 0:
                    raise InconsistentTable(
                        "bars starting at %s cannot be alive below it (entry (%d, %d))"
                        % (crit[j], j, i))
        for i, (a, b) in enumerate(zip(row[j:], row[j + 1:]), j):
            if a == b:
                continue
            if a < b:
                raise InconsistentTable(
                    "persisting counts increased from probe %d to %d for start %s"
                    % (i, i + 1, crit[j]))
            for _ in range(a - b):
                yield crit[j], crit[i + 1]
        for _ in range(row[k - 1]):
            yield crit[j], INF


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def format_action(v):
    return _format_rational(v)


def barcode_table_lines(B):
    """One line per bar: "[start, end) deg d"."""
    return ["[%s, %s) deg %s" % (b.start, format_action(b.end),
                                 "-" if b.degree is None else b.degree)
            for b in B.bars]


def _diagram_width(width):
    """Refuse a width below 2 (no column to scale to) or above 10,000."""
    if width < 2:
        raise ValidationError("diagram width must be at least 2, got %r"
                              % (width,))
    if width > 10000:
        raise ValidationError("diagram width must be at most 10000, got %r"
                              % (width,))
    return width


def barcode_diagram_lines(B, width=48):
    """Plain-text bar diagram, one row per bar, columns scaled to width."""
    _diagram_width(width)
    if not B.bars:
        return ["(empty barcode)"]
    starts = [b.start for b in B.bars]
    finite_ends = [b.end for b in B.bars if not b.is_infinite]
    lo = min(starts)
    hi = max(finite_ends + starts)
    if hi == lo:
        hi = lo + 1
    span = hi - lo
    lines = []
    for b in B.bars:
        c0 = int((b.start - lo) * (width - 1) / span)
        if b.is_infinite:
            c1 = width - 1
            tail = ">"
        else:
            c1 = max(c0 + 1, int((b.end - lo) * (width - 1) / span))
            tail = "|"
        row = " " * c0 + "=" * (c1 - c0) + tail
        label = "[%s, %s) deg %s" % (b.start, format_action(b.end),
                                     "-" if b.degree is None else b.degree)
        lines.append("%-22s %s" % (label, row))
    return lines


def barcode_csv_rows(B):
    """Rows for the plot-data emitter: start, end, degree."""
    rows = [("start", "end", "degree")]
    for b in B.bars:
        rows.append((str(b.start), format_action(b.end),
                     "" if b.degree is None else str(b.degree)))
    return rows
