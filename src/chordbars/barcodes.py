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
  their differences by :func:`recover`.  With exact rationals the
  "sufficiently small epsilon" of one-sided limits is realized by
  half-the-minimal-gap probes, which the ``<=`` comparisons below encode.

They share no reduction code; agreement between them is the core oracle test
of the package.
"""

from collections import Counter
from fractions import Fraction

from . import linalg
from .complexes import INF, FilteredComplex, as_action
from .errors import EngineMismatch, InconsistentTable, ValidationError
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

    def contains(self, level):
        return self.start <= level and level < self.end

    @property
    def key(self):
        dk = (0, 0) if self.degree is None else (1, self.degree)
        ek = (1, Fraction(0)) if self.is_infinite else (0, self.end)
        return (dk, self.start, ek)

    def astuple(self):
        return (self.start, self.end, self.degree)

    def __eq__(self, other):
        return isinstance(other, Bar) and self.astuple() == other.astuple()

    def __hash__(self):
        return hash(self.astuple())

    def __repr__(self):
        e = "inf" if self.is_infinite else str(self.end)
        d = "" if self.degree is None else " deg %d" % self.degree
        return "Bar[%s, %s)%s" % (self.start, e, d)


class Barcode:
    """Finite multiset of bars; equality is multiset equality."""

    __slots__ = ("bars",)

    def __init__(self, bars=()):
        self.bars = tuple(sorted(bars, key=lambda b: b.key))

    def __iter__(self):
        return iter(self.bars)

    def __len__(self):
        return len(self.bars)

    def __eq__(self, other):
        return isinstance(other, Barcode) and Counter(self.bars) == Counter(other.bars)

    def __repr__(self):
        return "Barcode(%s)" % (list(self.bars),)

    def persisting_count(self, level, start_below=None):
        """Bars containing `level`, optionally restricted to start < start_below."""
        n = 0
        for b in self.bars:
            if b.contains(level) and (start_below is None or b.start < start_below):
                n += 1
        return n

    def endpoints_at(self, l):
        """Number of bar endpoints (starts plus finite ends) equal to l."""
        return sum((b.start == l) + (b.end == l) for b in self.bars)


# ---------------------------------------------------------------------------
# canonical pairing form
# ---------------------------------------------------------------------------

class BarannikovForm:
    """Result of the pairing reduction.

    ``order`` lists generator ids sorted by (action, id); ``base_change`` is
    an upper-triangular matrix G over that order (new basis vectors as
    columns, raw field values) with a nonzero diagonal, read off R = D V;
    after the change of basis the differential maps each killer to its
    killed partner with coefficient exactly 1 and every other basis vector
    to 0.  G is one valid such base change, not a unique one; the pairs are
    unique.
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
    of ``order[j]``; returns R, V and {killed index: killer index}."""
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
    G = linalg.zeros(n, n, field)
    for m in range(n):
        for k, c in (R[killer_of[m]] if m in killer_of else V[m]).items():
            G[k][m] = c
    pairs = [(order[j], order[i]) for i, j in killer_of.items()]
    unpaired = [order[m] for m in range(n) if not R[m] and m not in killer_of]
    return BarannikovForm(field, order, G, pairs, unpaired)


def check_canonical_form(C, F):
    """Raise EngineMismatch unless F is a killer/killed normal form of C.

    Checks that F pairs or leaves unpaired each generator of C exactly once,
    that G = ``F.base_change`` is upper-triangular with a nonzero diagonal
    (so action-preserving and invertible), and the conjugation D G = G T
    column by column: D g_m, applied sparsely through ``differential_raw``,
    is g_i when m kills i and 0 otherwise.  The error names the generator.
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
        if not G[m][m] or any(G[r][m] for r in range(m + 1, n)):
            raise EngineMismatch("base change column of %r is not upper-"
                                 "triangular with a nonzero diagonal" % (gid,))
        image = {}
        for r in range(m + 1):
            if G[r][m]:
                field.add_scaled(image, C.differential_raw(order[r]), G[r][m])
        p = partner.get(m)
        want = {} if p is None else {order[r]: G[r][p]
                                     for r in range(n) if G[r][p]}
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
    exactly at s and alive past each e; :func:`recover` reads the bars back
    from that table.  ``<=`` on a rational grid realizes the probes at
    level + (minimal gap)/2.
    """
    field = C.field
    bars = []
    for d in C.degrees():
        Md, _, cols_d = C.boundary_matrix(d)
        Mup, rows_up, cols_up = C.boundary_matrix(d + 1)
        assert rows_up == cols_d  # invariant: both are C's degree-d generators
        crit = sorted({g.action for g in cols_d} | {g.action for g in cols_up})
        k = len(crit)
        # boundary columns (vectors over the degree-d basis) in action order
        up_cols = [[row[j] for row in Mup] for j in range(len(cols_up))]

        def ranks_from_row(m):
            """rank ∂[rows >= m, <= e] for every critical level e."""
            acc, ranks, p = RankAccumulator(field), [], 0
            for e in crit:
                while p < len(up_cols) and cols_up[p].action <= e:
                    acc.add(up_cols[p][m:])
                    p += 1
                ranks.append(acc.rank)
            return ranks

        dimB = ranks_from_row(0)
        accZ, m, W_prev = RankAccumulator(field), 0, [0] * k
        table = [[0] * k for _ in range(k)]
        for j, s in enumerate(crit):
            if m == len(cols_d) or cols_d[m].action != s:
                continue  # no degree-d generator starts at s
            while m < len(cols_d) and cols_d[m].action == s:
                accZ.add([row[m] for row in Md])
                m += 1
            W = [m - accZ.rank - b + r
                 for b, r in zip(dimB, ranks_from_row(m))]
            # row j: bars born exactly at s, alive past crit[e] for e >= s
            table[j][j:] = [w - wp for w, wp in zip(W[j:], W_prev[j:])]
            W_prev = W
        bars.extend(Bar(b.start, b.end, d) for b in recover(crit, table))
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

    Probes sit between consecutive critical values (and one unit above the
    top); entry [j][i] counts bars starting exactly at crit[j] that are
    still alive at probe i.  This is the data the recovery construction needs.
    """
    crit = sorted({b.start for b in B.bars}
                  | {b.end for b in B.bars if not b.is_infinite})
    k = len(crit)
    probes = [(crit[i] + crit[i + 1]) / 2 for i in range(k - 1)]
    if k:
        probes.append(crit[k - 1] + 1)
    table = [[0] * k for _ in range(k)]
    for b in B.bars:
        j = crit.index(b.start)
        for i in range(j, k):
            if b.contains(probes[i]):
                table[j][i] += 1
    return crit, table


def recover(critical_values, table):
    """Rebuild the interval multiset from a persisting-count table.

    Inverse of :func:`extract_table`; the output is degree-agnostic (bars
    carry degree None).  Monotonicity violations raise InconsistentTable.
    """
    crit = [as_action(c) for c in critical_values]
    if sorted(crit) != crit or len(set(crit)) != len(crit):
        raise InconsistentTable("critical values must be strictly increasing")
    k = len(crit)
    if len(table) != k or any(len(row) != k for row in table):
        raise InconsistentTable("table must be %d x %d" % (k, k))
    bars = []
    for j in range(k):
        for i in range(k):
            v = table[j][i]
            if v < 0:
                raise InconsistentTable("negative count at (%d, %d)" % (j, i))
            if i < j and v != 0:
                raise InconsistentTable(
                    "bars starting at %s cannot be alive below it (entry (%d, %d))"
                    % (crit[j], j, i))
        for i in range(j, k - 1):
            died = table[j][i] - table[j][i + 1]
            if died < 0:
                raise InconsistentTable(
                    "persisting counts increased from probe %d to %d for start %s"
                    % (i, i + 1, crit[j]))
            for _ in range(died):
                bars.append(Bar(crit[j], crit[i + 1]))
        for _ in range(table[j][k - 1]):
            bars.append(Bar(crit[j], INF))
    return Barcode(bars)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def format_action(v):
    if type(v) is Fraction:
        return str(v)
    return "inf" if v == INF else str(v)


def barcode_table_lines(B):
    """One line per bar: "[start, end) deg d"."""
    return ["[%s, %s) deg %s" % (b.start, format_action(b.end),
                                 "-" if b.degree is None else b.degree)
            for b in B.bars]


def barcode_diagram_lines(B, width=48):
    """Plain-text bar diagram, one row per bar, columns scaled to width."""
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
