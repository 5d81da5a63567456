"""One-parameter families of filtered complexes.

A timeline is an ordered mix of :class:`DriftSegment` (continuous
piecewise-linear motion of generator actions and window edges, differential
frozen) and singular events (handle slide, birth/death of a canceling pair,
exit/entry of a generator through a window edge).  :func:`simulate` replays
it exactly — rational breakpoints, rational crossing times — validating every
reachable complex, and produces a trace of samples: each holds its time,
generator actions, window and canonical id-pairing, and builds its complex
and barcode on access.  :func:`check_transitions` then verifies that each event
changed the pairing in an admissible way and that nothing jumps between
events; :func:`drift_speed_audit` checks the declared speed laws.

The identity of a bar over time is the pair (start generator, end generator)
of the canonical pairing, which is constant on crossing-free stretches.
"""

import math
from collections import Counter
from fractions import Fraction
from operator import sub

from . import linalg
from .barcodes import Bar, Barcode, _reduce
from .complexes import (INF, FilteredComplex, as_action, as_degree, as_id,
                        boundary_raw)
from .errors import (ActionIncrease, ActionOutsideWindow, CheckEntry,
                     CheckReport, EventPreconditionViolated,
                     NonGenericCrossing, SimultaneousBifurcations,
                     ValidationError)
from .piecewise import PLPath, merge_times


def _as_path(value, t0, t1):
    """Accept a PLPath (kept as is), a constant, or a list of (t, v) pairs;
    :class:`PLPath` reads every coordinate as an exact action."""
    if value is None or isinstance(value, PLPath):
        return value
    if isinstance(value, (list, tuple)):
        return PLPath(value)
    return PLPath.constant(value, t0, t1)


class DriftSegment:
    """Continuous motion on [t0, t1]: one action path per generator id.

    ``window_a`` / ``window_b`` may be None (keep the incoming value,
    constant) or paths; ``window_b=INF`` keeps an infinite top explicitly.
    """

    kind = "drift"

    def __init__(self, t0, t1, actions, window_a=None, window_b=None):
        self.t0 = as_action(t0)
        self.t1 = as_action(t1)
        if not self.t0 < self.t1:
            raise ValidationError("drift segment needs t0 < t1")
        self.actions = {gid: _as_path(p, self.t0, self.t1)
                        for gid, p in actions.items()}
        self.window_a = _as_path(window_a, self.t0, self.t1)
        self.window_b = (INF if window_b == INF
                         else _as_path(window_b, self.t0, self.t1))
        for gid, p in self.actions.items():
            if (p.t_start, p.t_end) != (self.t0, self.t1):
                raise ValidationError("action path of %r does not span [%s, %s]"
                                      % (gid, self.t0, self.t1))
        for p in (self.window_a, self.window_b):
            if isinstance(p, PLPath) and (p.t_start, p.t_end) != (self.t0, self.t1):
                raise ValidationError("window path does not span the segment")


class SingularEvent:
    """A bifurcation at one time.  A new kind is one subclass plus one row in
    the :mod:`chordbars.schemas` item table.  ``apply(state)`` checks its
    preconditions and edits the family state; it alone enforces what the
    actions are at the event time (shared generators keep theirs, newcomers
    and leavers sit where the rule says) and, in one check, refuses every
    zero gap, top touch or tie it does not resolve at those actions.
    ``admissible(pairs)`` lists the admissible (post-event pairing,
    description) pairs, none if the bar it acts on is missing.  ``edge`` is
    the window edge (0 bottom, 1 top) an exit or entry crosses; both exits
    share one rule and both entries another, each read at that edge.
    """

    kind = "event"
    edge = None

    def __init__(self, time):
        self.time = as_action(time)

    def apply(self, state):
        raise ValidationError("unknown event kind %r" % self.kind)


class HandleSlide(SingularEvent):
    """Action-preserving base change: target absorbs unit * addend."""

    kind = "handle_slide"

    def __init__(self, time, target, addend, unit=1):
        super().__init__(time)
        self.target = target
        self.addend = dict(addend)
        self.unit = unit

    def apply(self, state):
        field, tau = state.field, self.time
        _require_resolved(state, self)
        if self.target not in state.degrees:
            raise EventPreconditionViolated("slide target %r not present"
                                            % self.target)
        unit = field.coerce(self.unit)
        if not unit:
            raise EventPreconditionViolated("slide unit must be nonzero")
        w = {}
        for gid, c in self.addend.items():
            if gid == self.target:
                raise EventPreconditionViolated(
                    "slide addend may not contain the target")
            if gid not in state.degrees:
                raise EventPreconditionViolated(
                    "slide addend id %r not present" % gid)
            if state.degrees[gid] != state.degrees[self.target]:
                raise EventPreconditionViolated(
                    "slide addend %r has degree %d, target has %d"
                    % (gid, state.degrees[gid], state.degrees[self.target]))
            if state.actions[gid] > state.actions[self.target]:
                raise EventPreconditionViolated(
                    "slide addend %r has larger action than the target at t = %s"
                    % (gid, tau))
            cc = field.mul(field.coerce(c), unit)
            if cc:
                w[gid] = cc
        # conjugate ∂ by e_target -> e_target + w: the target's boundary
        # gains ∂w, every source hitting the target loses (coefficient)·w
        dw = boundary_raw(field, state.diff, w)
        new_diff = {}
        for src in state.degrees:
            row = dict(state.diff.get(src, {}))
            if src == self.target:
                field.add_scaled(row, dw, field.one_raw)
            elif row.get(self.target):
                field.add_scaled(row, w, field.neg(row[self.target]))
            if row:
                new_diff[src] = row
        state.diff = new_diff

    def admissible(self, pairs):
        return [(frozenset(pairs), "pairing unchanged")]


class Birth(SingularEvent):
    """Adjoin a canceling pair x, y with ∂x = y at a common action."""

    kind = "birth"

    def __init__(self, time, x, y, common_action):
        super().__init__(time)
        (x_id, x_degree), (y_id, y_degree) = x, y
        self.x_id, self.y_id = as_id(x_id), as_id(y_id)
        self.x_degree, self.y_degree = as_degree(x_degree), as_degree(y_degree)
        self.common_action = as_action(common_action)

    def apply(self, state):
        _require_resolved(state, self)
        for gid in (self.x_id, self.y_id):
            if gid in state.degrees:
                raise EventPreconditionViolated("birth id %r already in use" % gid)
        if self.x_id == self.y_id:
            raise EventPreconditionViolated("birth pair needs two distinct ids")
        if self.x_degree != self.y_degree + 1:
            raise EventPreconditionViolated(
                "birth pair degrees must differ by one (x one above y)")
        if not state.a <= self.common_action < state.b:
            raise EventPreconditionViolated(
                "birth action %s outside window [%s, %s) at t = %s"
                % (self.common_action, state.a, state.b, self.time))
        if any(act == self.common_action for act in state.actions.values()):
            raise NonGenericCrossing(
                "birth at action %s collides with an existing generator"
                % self.common_action)
        state.degrees[self.x_id] = self.x_degree
        state.degrees[self.y_id] = self.y_degree
        state.actions[self.x_id] = self.common_action
        state.actions[self.y_id] = self.common_action
        state.diff[self.x_id] = {self.y_id: state.field.one_raw}

    def admissible(self, pairs):
        return [(frozenset(pairs | {(self.y_id, self.x_id)}),
                 "one bar added at the common action")]


class Death(SingularEvent):
    """Remove a split canceling pair (x kills y) whose actions collide."""

    kind = "death"

    def __init__(self, time, x, y):
        super().__init__(time)
        self.x_id = x
        self.y_id = y

    def apply(self, state):
        x, y = self.x_id, self.y_id
        if x not in state.degrees or y not in state.degrees:
            raise EventPreconditionViolated("death pair (%r, %r) not present"
                                            % (x, y))
        _require_resolved(state, self, gap_ok=(x, y))
        row = state.diff.get(x, {})
        if set(row) != {y} or not row[y]:
            raise EventPreconditionViolated(
                "death requires ∂%s = unit·%s exactly, got targets %s"
                % (x, y, sorted(row)))
        for src, r in state.diff.items():
            if src != x and (x in r or y in r):
                raise EventPreconditionViolated(
                    "death pair is not split: %r appears in the boundary of %r"
                    % (x if x in r else y, src))
        if state.actions[x] != state.actions[y]:
            raise EventPreconditionViolated(
                "death pair actions differ at t = %s: %s vs %s"
                % (self.time, state.actions[x], state.actions[y]))
        _remove(state, x, y)

    def admissible(self, pairs):
        if (self.y_id, self.x_id) not in pairs:
            return []
        return [(frozenset(pairs - {(self.y_id, self.x_id)}),
                 "the collided bar removed")]


def _remove(state, *gids):
    """Drop generators and every differential term naming one of them."""
    for g in gids:
        del state.degrees[g], state.actions[g]
        state.diff.pop(g, None)
        for src, row in list(state.diff.items()):
            if row.pop(g, None) is not None and not row:
                del state.diff[src]


class _WindowEdgeEvent(SingularEvent):
    """A generator leaving (``exits``) or entering the window through
    ``edge``, the bottom ``state.a`` or the top ``state.b``: it sits there
    before an exit and after an entry, and starts (bottom) or ends (top)
    the bar it changes; ``_Exit`` and ``_Entry`` read their texts by edge."""

    exits = True

    def __init__(self, time, gid):
        super().__init__(time)
        self.gid = gid


def _edge_at(state, ev):
    """The action of the window edge ``ev`` crosses, which must be finite."""
    at = (state.a, state.b)[ev.edge]
    if at == INF:
        raise EventPreconditionViolated(
            "%s needs a finite window top" % ev.kind.replace("_", " "))
    return at


class _Exit(_WindowEdgeEvent):
    """Leaves from its edge; only a leaver through the top may sit on it."""

    _changed = ("finite bar from the bottom replaced by an infinite one",
                "bar ending at the top becomes infinite")

    def apply(self, state):
        g, at = self.gid, _edge_at(state, self)
        if g not in state.degrees:
            raise EventPreconditionViolated("exiting generator %r not present" % g)
        _require_resolved(state, self, top_ok=g if self.edge else None)
        if state.actions[g] != at:
            raise EventPreconditionViolated(
                "%s requires action(%s) = window %s %s at t = %s, got %s" % (
                    self.kind.replace("_", " "), g,
                    ("bottom", "top")[self.edge], at, self.time,
                    state.actions[g]))
        # the quotient drops a bottom leaver's terms; nothing hits a top one
        _remove(state, g)

    def admissible(self, pairs):
        g = self.gid
        mine = [p for p in pairs if g in p]
        if len(mine) != 1:
            return []
        bar, rest = mine[0], pairs - set(mine)
        if bar == (g, None):
            return [(frozenset(rest), "the exiting infinite bar removed")]
        if bar[self.edge] != g:
            return []
        return [(frozenset(rest | {(bar[1 - self.edge], None)}),
                 self._changed[self.edge])]


class ExitBelow(_Exit):
    kind = "exit_below"
    edge = 0


class ExitAbove(_Exit):
    kind = "exit_above"
    edge = 1


class _Entry(_WindowEdgeEvent):
    """Comes in on its edge with a ``chain`` and starts a fresh infinite
    bar or that end of one; the edge reads the chain's rule and texts."""

    exits = False
    _joined = ("an infinite bar now starts at the bottom (killed by {!r})",
               "an infinite bar is now cut off at the top")
    _refused = (("coupling id {!r} not present",
                 "coupling {!r} must be one degree above the newcomer",
                 "couplings break ∂² = 0 (witness {!r})"),
                ("boundary id {!r} not present",
                 "boundary of the newcomer must live one degree down",
                 "entry boundary is not a cycle (witness {!r})"))

    def __init__(self, time, gid, degree, chain):
        super().__init__(time, as_id(gid))
        self.degree = as_degree(degree)
        self.chain = dict(chain or {})

    def apply(self, state):
        g, field, at = self.gid, state.field, _edge_at(state, self)
        if g in state.degrees:
            raise EventPreconditionViolated("entering id %r already in use" % g)
        _require_resolved(state, self)
        absent, off_degree, not_closed = self._refused[self.edge]
        chain = {}
        for z, c in self.chain.items():
            if z not in state.degrees:
                raise EventPreconditionViolated(absent.format(z))
            if state.degrees[z] != self.degree + (1, -1)[self.edge]:
                raise EventPreconditionViolated(off_degree.format(z))
            cc = field.coerce(c)
            if cc:
                chain[z] = cc
        up = {z: {g: c} for z, c in chain.items()}
        bad = (sorted(boundary_raw(field, state.diff, chain)) if self.edge
               else [w for w, row in state.diff.items()
                     if boundary_raw(field, up, row)])
        if bad:
            raise EventPreconditionViolated(not_closed.format(bad[0]))
        # vacuous above: _require_resolved refused a generator on the top
        if any(act == at for act in state.actions.values()):
            raise NonGenericCrossing(
                "entry at the bottom collides with a generator at action %s"
                % at)
        state.degrees[g], state.actions[g] = self.degree, at
        if not self.edge:
            for z, c in chain.items():
                state.diff.setdefault(z, {})[g] = c
        elif chain:
            state.diff[g] = chain

    def admissible(self, pairs):
        g = self.gid
        out = [(frozenset(pairs | {(g, None)}), "a fresh infinite bar starts "
                "at the %s" % ("bottom", "top")[self.edge])]
        for s in sorted(s for s, e in pairs if e is None):
            out.append((frozenset((pairs - {(s, None)})
                                  | {((g, s), (s, g))[self.edge]}),
                        self._joined[self.edge].format(s)))
        return out


class EntryBelow(_Entry):
    """Generator enters at the bottom edge.

    ``couplings`` (kept as ``chain``) maps existing generator ids, one
    degree up, to the coefficient with which the newcomer appears in their
    differential; the row must annihilate the image from two degrees up so
    ∂² stays zero, and the first row in differential order it does not
    annihilate is the witness.
    """

    kind = "entry_below"
    edge = 0

    def __init__(self, time, gid, degree, couplings=None):
        super().__init__(time, gid, degree, couplings)


class EntryAbove(_Entry):
    """Generator enters at the top edge carrying its own ``boundary`` (kept
    as ``chain``), a cycle one degree down, else its least target witnesses."""

    kind = "entry_above"
    edge = 1

    def __init__(self, time, gid, degree, boundary=None):
        super().__init__(time, gid, degree, boundary)


# ---------------------------------------------------------------------------
# trace containers
# ---------------------------------------------------------------------------

class Sample:
    """Time, actions, window and id-pairing of one replay sample; ``frame``
    is the (field, degrees, differential) its segment shares."""

    __slots__ = ("t", "actions", "window", "pairs", "frame")

    def __init__(self, t, actions, window, pairs, frame):
        self.t = t
        self.actions = actions
        self.window = window
        self.pairs = pairs  # frozenset of (start_id, end_id or None)
        self.frame = frame

    @property
    def complex(self):
        return _complex_at(self.frame, self.actions, self.window)

    @property
    def barcode(self):
        acts, degrees = self.actions, self.frame[1]
        return Barcode(Bar(acts[s], INF if e is None else acts[e], degrees[s])
                       for s, e in self.pairs)


def _complex_at(frame, actions, window):
    field, degrees, diff = frame
    return FilteredComplex(field, window, [(gid, actions[gid], d)
                                           for gid, d in degrees.items()], diff)


class SegmentTrace:
    """A segment's samples, crossings, critical times and action paths
    (``paths[gid]``, the segment's own)."""

    __slots__ = ("crossings", "sample_indices", "critical", "paths")

    def __init__(self, crossings, sample_indices, critical, paths):
        self.crossings = crossings
        self.sample_indices = sample_indices
        self.critical = critical
        self.paths = paths

    def critical_actions(self, k, gids):
        """The actions of ``gids`` at ``critical[k]``, evaluated on call."""
        t = [self.critical[k]]
        return {gid: self.paths[gid].values_at(t)[0] for gid in gids}


class FamilyTrace:
    """Output of :func:`simulate`: ordered samples, one
    :class:`SegmentTrace` per drift segment and the applied events."""

    def __init__(self):
        self.samples = []
        self.segments = []
        self.events = []
        self._order = None  # the last sample's (degree, action, id) order

    def add_sample(self, t, actions, window, frame, keys):
        """Append a sample; ``keys`` holds (degree, action, id) for each
        generator, its actions possibly all scaled by one positive factor.
        ``keys=None`` means the caller vouches that no two generators of one
        degree met since the last sample, which shares ``frame``."""
        field, degrees, diff = frame
        # the (degree, action, id) order gives the (action, id) pairs (see
        # _reduce) and changes only where two generators of one degree
        # cross, so while it and the frame stand the last sample's pairing
        # stands too
        order = (self._order if keys is None
                 else [key[2] for key in sorted(keys)])
        last = self.samples[-1] if self.samples else None
        if last and last.frame is frame and order == self._order:
            pairs = last.pairs
        else:
            R, _V, killer_of = _reduce(field, order,
                                       [diff.get(gid, {}) for gid in order])
            pairs = frozenset(
                [(order[i], order[j]) for i, j in killer_of.items()]
                + [(order[m], None) for m, r in enumerate(R)
                   if not r and m not in killer_of])
        self._order = order
        self.samples.append(Sample(t, actions, window, pairs, frame))


def _pairing_bars_at(pairs, actions, degrees):
    """Value-level bars of an id-pairing at given action values (a Counter)."""
    out = Counter()
    for s, e in pairs:
        out[(actions[s], INF if e is None else actions[e], degrees[s])] += 1
    return out


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

class _State:
    """Mutable family state between timeline items: the degrees, actions,
    window edges ``a``, ``b`` and differential rows at the current time."""

    __slots__ = ("field", "degrees", "actions", "a", "b", "diff")

    def __init__(self, cx):
        self.field = cx.field
        self.degrees = {g.id: g.degree for g in cx.generators}
        self.actions = {g.id: g.action for g in cx.generators}
        self.a, self.b = cx.window
        self.diff = {g.id: dict(cx.differential_raw(g.id))
                     for g in cx.generators if cx.differential_raw(g.id)}

    def frame(self):
        """(field, degrees, differential), copied: events edit rows in place."""
        return (self.field, dict(self.degrees),
                {src: dict(row) for src, row in self.diff.items()})

    def add_sample(self, trace, t, frame):
        keys = [(frame[1][gid], a, gid) for gid, a in self.actions.items()]
        trace.add_sample(t, dict(self.actions), (self.a, self.b), frame, keys)


def simulate(initial, timeline):
    """Replay a timeline exactly; returns a :class:`FamilyTrace`.

    Raises SimultaneousBifurcations / EventPreconditionViolated /
    NonGenericCrossing / ActionIncrease / ActionOutsideWindow as soon as a
    violation becomes reachable.  Failures of the *expected barcode rules*
    are not exceptions — they come out of :func:`check_transitions`.
    """
    if not isinstance(initial, FilteredComplex):
        raise ValidationError("initial must be a FilteredComplex")
    trace = FamilyTrace()
    state = _State(initial)

    items = list(timeline)
    if not items:
        state.add_sample(trace, as_action(0), state.frame())
        return trace
    if not isinstance(items[0], DriftSegment):
        raise ValidationError("a timeline must start with a drift segment")

    cursor = items[0].t0
    state.add_sample(trace, cursor, state.frame())
    last_event = None  # event waiting for its following segment
    for idx, item in enumerate(items):
        if isinstance(item, DriftSegment):
            if item.t0 != cursor:
                raise ValidationError(
                    "segment %d starts at %s but the family is at %s"
                    % (idx, item.t0, cursor))
            _run_segment(trace, state, item, last_event is not None)
            cursor = item.t1
            last_event = None
        elif isinstance(item, SingularEvent):
            if item.time != cursor:
                raise ValidationError(
                    "event %d at time %s but the family is at %s"
                    % (idx, item.time, cursor))
            if last_event is not None:
                raise SimultaneousBifurcations(
                    "two singular events at t = %s" % item.time)
            item.apply(state)
            trace.events.append(item)
            last_event = item
        else:
            raise ValidationError(
                "timeline item %d is neither a segment nor an event" % idx)

    if last_event is None:
        # the family must end in a valid complex: a zero gap or top touch
        # the last segment left is rejected here
        gaps, tops = _degeneracies(state)
        if gaps:
            raise ActionIncrease(
                "differential edge %r -> %r loses strict action decrease at "
                "the end of the timeline" % gaps[0])
        if tops:
            raise ActionOutsideWindow(
                "generator %r sits on the window top at the end of the "
                "timeline" % tops[0])
    if last_event is not None or not state.a < state.b:
        # only here can the final complex be invalid, so only here is it
        # built: a birth or an entry above at the end leaves it degenerate,
        # and with no generator left nothing else keeps the window nonempty
        _complex_at(state.frame(), state.actions, (state.a, state.b))
        raise ValidationError(
            "event at t = %s lacks a sample on one side; surround "
            "singular events with drift segments" % cursor)
    state.add_sample(trace, cursor, trace.samples[-1].frame)
    return trace


def _run_segment(trace, state, seg, entered):
    t0, t1 = seg.t0, seg.t1

    # 1. key / continuity validation against the current state
    if set(seg.actions) != set(state.degrees):
        missing = sorted(set(state.degrees) - set(seg.actions))
        extra = sorted(set(seg.actions) - set(state.degrees))
        raise ValidationError("segment paths mismatch state (missing %s, extra %s)"
                              % (missing, extra))
    for gid, p in seg.actions.items():
        if p.start_value != state.actions[gid]:
            raise ValidationError(
                "path of %r starts at %s but the generator sits at %s (t=%s)"
                % (gid, p.start_value, state.actions[gid], t0))
    a_path = seg.window_a or PLPath.constant(state.a, t0, t1)
    if a_path.start_value != state.a:
        raise ValidationError("window bottom jumps at t=%s" % t0)
    if seg.window_b is None:
        b_path = INF if state.b == INF else PLPath.constant(state.b, t0, t1)
    else:
        b_path = seg.window_b
    if b_path == INF:
        if state.b != INF:
            raise ValidationError("window top jumps to infinity at t=%s" % t0)
    elif state.b == INF or b_path.start_value != state.b:
        raise ValidationError("window top jumps at t=%s" % t0)

    ids = sorted(seg.actions)
    paths = seg.actions
    edges = [a_path] if b_path == INF else [a_path, b_path]
    cols = [paths[gid] for gid in ids] + edges

    # 2. one grid per segment: the breakpoints of every path and window
    # edge, mostly the longest path's, which the others have too or span
    # with their ends alone.  Each is read there once (a path with as many
    # breakpoints as the grid has exactly its times, so its values are its
    # breakpoints'), and at grid time k every value is put over the lcm L[k]
    # of their denominators: paths, pair differences and gaps become int
    # arrays, affine between grid times.  The verdicts and the samples below
    # read only these ints; a Fraction is built only for a crossing time, a
    # witness or a sample's values.
    knots = [tuple(zip(*p.points)) for p in cols]  # (times, values)
    grid = max([ts for ts, _ in knots], key=len)
    if any(len(ts) > 2 and ts != grid for ts, _ in knots):
        grid = merge_times(*[ts for ts, _ in knots])
    on_grid = [vs if len(vs) == len(grid) else p.values_at(grid)
               for p, (_, vs) in zip(cols, knots)]
    L = [math.lcm(*[v.denominator for v in vs]) for vs in zip(*on_grid)]
    ints = [[v.numerator * (m // v.denominator) for v, m in zip(vs, L)]
            for vs in on_grid]
    at = dict(zip(ids, ints))
    last = len(grid) - 1
    grid_ratios = [t.as_integer_ratio() for t in grid]

    def root(k, x0, x1):
        # the zero on [grid[k], grid[k+1]] of the affine function with
        # values x0 / L[k] and x1 / L[k+1] at its ends (which differ)
        (a, b), (c, e) = grid_ratios[k:k + 2]
        y0, y1 = x0 * L[k + 1], x1 * L[k]
        return Fraction(c * b * y0 - a * e * y1, b * e * (y0 - y1))

    # 3. exact crossings by one sweep in value order (a family reorders its
    # generators only by neighbour swaps, as in vineyards).  At grid time k
    # they sort by (x_k, x_k+1, index): equal values at k tie, a run equal
    # at both coincides on the interval, never generic (the least such pair
    # in id order is named), and the pairs an insertion pass by x_k+1 moves
    # past each other change sign inside (k, k+1).  ``moved``: where two
    # generators of one degree meet, so the pairing may change
    gens = len(ids)
    degs = [state.degrees[gid] for gid in ids]
    by_time = list(zip(*ints[:gens]))
    ties, inner, moved, coincide = set(), {}, {0}, []
    for k, now in enumerate(by_time):
        tie = len(set(now)) < gens
        if tie:
            ties.add(k)
            if len(set(zip(now, degs))) < gens:
                moved.add(k)
        if k == last:
            break
        rows = sorted(zip(now, by_time[k + 1], range(gens)))
        if tie:
            coincide += [(ids[i], ids[j]) for (a0, a1, i), (b0, b1, j)
                         in zip(rows, rows[1:]) if a0 == b0 and a1 == b1]
        after = [row[1] for row in rows]
        if coincide or after == sorted(after):
            continue
        run = []  # the rows passed, by x_k+1
        for row in rows:
            j = len(run)
            while j and run[j - 1][1] > row[1]:
                j -= 1
                a0, a1, i = run[j]
                t = root(k, a0 - row[0], a1 - row[1])
                inner[k, t] = inner.get((k, t)) or degs[i] == degs[row[2]]
            run.insert(j, row)
    if coincide:
        raise NonGenericCrossing("trajectories of %r and %r coincide on an "
                                 "interval" % min(coincide))

    # critical times (the grid plus the inner crossings) only drive sampling
    # and the crossing checks; an inner crossing (k, 1, t) sorts after grid
    # time (k, 0, grid[k]), so grid times are never compared
    keyed = sorted([(k, 0, t, k in moved) for k, t in enumerate(grid)]
                   + [(k, 1, t, m) for (k, t), m in inner.items()])
    critical = [key[2] for key in keyed]
    crossings = [t for k, kind, t, _ in keyed if kind or k in ties]

    def first_bad(gap):
        # the first time the gap is not > 0 (a piece going negative: its
        # zero; none starts negative, as t0 is valid and a piece before it
        # would go negative first).  A zero is allowed at t1, where the next
        # event or the family's end judges it, and at t0 after an event:
        # its ``apply`` refused every zero but the one it leaves (a birth's
        # edge, an entry above's newcomer on the top).
        # The gap is affine on its own pieces, so the grid's finer ones give
        # the same witness.
        if min(gap) > 0:
            return None
        for k in range(last):
            va, vb = gap[k], gap[k + 1]
            if vb < 0:
                return root(k, va, vb)
            if va == 0 and (k or vb == 0 or not entered):
                return grid[k]
        return None

    # 4a. strict action decrease along every differential edge
    for src, row in state.diff.items():
        for tgt in row:
            witness = first_bad(list(map(sub, at[src], at[tgt])))
            if witness is not None:
                raise ActionIncrease(
                    "differential edge %r -> %r loses strict action decrease "
                    "at t = %s" % (src, tgt, witness))

    # 4b. window containment (bottom is closed, top is open)
    bottom, top = ints[len(ids)], ints[-1]  # top is read only if b is finite
    for gid in ids:
        low = list(map(sub, at[gid], bottom))
        if min(low) < 0:
            # the message names the piece of the gap's own breakpoints that
            # holds its first negative grid value
            k = next(k for k, x in enumerate(low) if x < 0)
            own = merge_times(paths[gid].breakpoint_times(),
                              a_path.breakpoint_times())
            i = max(1, next(i for i, t in enumerate(own) if t >= grid[k]))
            raise ActionOutsideWindow(
                "generator %r dips below the window bottom in [%s, %s]"
                % (gid, own[i - 1], own[i]))
        if b_path != INF:
            witness = first_bad(list(map(sub, top, at[gid])))
            if witness is not None:
                raise ActionOutsideWindow(
                    "generator %r reaches the window top at t = %s"
                    % (gid, witness))

    # 5. sampling at the midpoint of every stretch between critical times —
    # in particular just after an event at t0 and just before one at t1.
    # The stretch after critical time (k, ...) lies in grid interval k, where
    # every path and edge is affine: at the midpoint s its value is
    # (u·x0 + v·x1) / D from its grid ints x0, x1 at k and k + 1, with the
    # weights u, v and the denominator D > 0 shared by the whole sample (one
    # constant on the interval keeps its grid Fraction).  Only the stretch
    # after a ``moved`` time, the segment's first among them, passes keys.
    # ids, degrees and ∂² need no complex here: the initial one was
    # validated, and each event's ``apply`` checks what it changes
    still = list(zip(*[[vs[k] if x[k] * L[k + 1] == x[k + 1] * L[k] else None
                        for k in range(last)]
                       for vs, x in zip(on_grid, ints)]))
    frame = state.frame()
    first = len(trace.samples)
    rs = [t.as_integer_ratio() for t in critical]
    for (k, _, _, fresh), (a, d), (b, e) in zip(keyed, rs, rs[1:]):
        n, m = a * e + b * d, 2 * d * e  # s = n / m
        (p, q), (r, w) = grid_ratios[k:k + 2]
        u = (r * m - n * w) * q * L[k + 1]
        v = (n * q - p * m) * w * L[k]
        D = m * (r * q - p * w) * L[k] * L[k + 1]
        nums = [u * x[k] + v * x[k + 1] for x in ints]
        vals = [Fraction(x, D) if f is None else f
                for f, x in zip(still[k], nums)]
        win = (vals[gens], INF if b_path == INF else vals[-1])
        # the gap checks cover this unless no generator is left
        if b_path != INF and not nums[gens] < nums[-1]:
            raise ValidationError("empty window [%s, %s)" % win)
        trace.add_sample(Fraction(n, m), dict(zip(ids, vals)), win, frame,
                         list(zip(degs, nums, ids)) if fresh else None)
    trace.segments.append(SegmentTrace(
        crossings, list(range(first, len(trace.samples))), critical, paths))

    # 6. advance the state to t1
    state.actions = {gid: paths[gid].end_value for gid in ids}
    state.a = a_path.end_value
    state.b = INF if b_path == INF else b_path.end_value


def _degeneracies(state):
    """The sorted differential edges whose two actions are equal, and the
    sorted generators on a finite window top."""
    acts, b = state.actions, state.b
    gaps = sorted([(src, tgt) for src, row in state.diff.items()
                   for tgt in row if acts[src] == acts[tgt]])
    tops = [] if b == INF else sorted([g for g, v in acts.items() if v == b])
    return gaps, tops


def _require_resolved(state, ev, gap_ok=None, top_ok=None):
    """The one genericity check at an event: refuse a zero edge gap, a
    generator on the top or two generators at one action, except the edge
    ``gap_ok`` (its ends may tie) or the generator ``top_ok`` it resolves."""
    gaps, tops = _degeneracies(state)
    stray = [e for e in gaps if e != gap_ok]
    if stray:
        raise ActionIncrease(
            "differential edge %r -> %r loses strict action decrease at "
            "t = %s and the %s event does not resolve it"
            % (*stray[0], ev.time, ev.kind))
    stray = [g for g in tops if g != top_ok]
    if stray:
        raise ActionOutsideWindow(
            "generator %r reaches the window top at t = %s and the %s event "
            "does not resolve it" % (stray[0], ev.time, ev.kind))
    seen = {}
    for gid, act in sorted(state.actions.items()):
        if act in seen and not {gid, seen[act]} <= set(gap_ok or ()):
            raise NonGenericCrossing(
                "generators %r and %r share action %s exactly at the singular "
                "time t = %s" % (seen[act], gid, act, ev.time))
        seen[act] = gid


# ---------------------------------------------------------------------------
# transition checking — expected barcode rules at each event
# ---------------------------------------------------------------------------

def _step_entry(s1, s2, t, crossing, st, k):
    """Check the samples around critical time k of segment ``st``, reported
    at t: across a crossing the bar values must match, elsewhere the pairing
    stays.  Pairs both samples share give the same bars, so only the others
    count, and the actions at the crossing are built only if some pair
    differs, only for the generators those pairs name."""
    ok = s1.pairs == s2.pairs
    if not crossing:
        return CheckEntry("continuity", None, t, ok,
                          "" if ok else "pairing changed without a crossing")
    if not ok:
        gone, new = s1.pairs - s2.pairs, s2.pairs - s1.pairs
        acts = st.critical_actions(k, set().union(*gone, *new) - {None})
        ok = (_pairing_bars_at(gone, acts, s1.frame[1])
              == _pairing_bars_at(new, acts, s1.frame[1]))
    return CheckEntry("crossing", None, t, ok, "" if ok else
                      "bar endpoint values jump across the crossing")


def check_transitions(trace):
    """Verify barcode continuity along segments and the jump rule at events.

    One walk over each segment's critical times: critical time k lies
    between the segment's samples k - 1 and k (the family's first and last
    samples sit on its ends), and a later segment's first is the last of
    the one before.  Along a segment and across an event-free boundary the
    pairing stays, or keeps its bar values across a crossing; at the
    family's ends only a crossing is checked.  At an event the post-event
    pairing, read from the reduction, must be one of the transforms the
    event's ``admissible`` lists for the pre-event pairing; the event's
    ``apply`` refused or wrote the actions at its time.

    Entries along the segments come first, then those across event-free
    boundaries, then the events'.  Nothing is raised for rule failures, so
    a broken family can be inspected.
    """
    along, across, jumps = [], [], []
    events = {ev.time: ev for ev in trace.events}
    samples, segments = trace.samples, trace.segments
    for i, st in enumerate(segments):
        # st.crossings is a sublist of st.critical, the same objects in order
        crossings, j = st.crossings, 0
        base = st.sample_indices[0] - 1
        last = len(st.critical) - 1
        for k, t in enumerate(st.critical):
            crossing = j < len(crossings) and crossings[j] is t
            j += crossing
            if not k and i:
                continue
            s1, s2 = samples[base + k], samples[base + k + 1]
            if 0 < k < last:
                along.append(_step_entry(s1, s2, t if crossing else s2.t,
                                         crossing, st, k))
            elif t in events:
                ev = events[t]
                candidates = ev.admissible(s1.pairs)
                match = next((d for p, d in candidates if s2.pairs == p),
                             None)
                jumps.append(CheckEntry(
                    ev.kind, None, ev.time, match is not None, match or
                    "post-event pairing is not an admissible transform "
                    "(expected one of: %s)"
                    % "; ".join(d for _, d in candidates)))
            elif k and st is not segments[-1]:
                across.append(_step_entry(s1, s2, t, crossing, st, k))
            elif crossing:  # at the family's ends
                along.append(_step_entry(s1, s2, t, True, st, k))
    return CheckReport(along + across + jumps)


# ---------------------------------------------------------------------------
# vineyard: persistent bar identities across the whole trace
# ---------------------------------------------------------------------------

def _remap_across(new_pairs, id_map, counter):
    """Carry bar ids over a pairing change (crossing or event).

    Order of matching: identical id-pairs first; then bars with the same end
    generator (value continuity forces the match); then the same start
    generator; whatever is left gets a fresh id, in (start, end) id order.
    """
    new_map = {}
    old_left = dict(id_map)
    for p in new_pairs:
        if p in old_left:
            new_map[p] = old_left.pop(p)
    todo = [p for p in new_pairs if p not in new_map]
    by_end = {}
    for (s, e), bid in old_left.items():
        if e is not None:
            by_end.setdefault(e, []).append((s, e))
    for p in list(todo):
        s, e = p
        if e in by_end and by_end[e]:
            q = by_end[e].pop(0)
            new_map[p] = old_left.pop(q)
            todo.remove(p)
    by_start = {}
    for (s, e), bid in old_left.items():
        by_start.setdefault(s, []).append((s, e))
    for p in list(todo):
        s, e = p
        if s in by_start and by_start[s]:
            q = by_start[s].pop(0)
            new_map[p] = old_left.pop(q)
            todo.remove(p)
    for p in sorted(todo, key=lambda q: (str(q[0]), str(q[1]))):
        new_map[p] = "b%03d" % counter[0]
        counter[0] += 1
    return new_map


def vineyard_rows(trace):
    """Rows (t, bar_id, start, end, degree) for every sample, bars tracked
    by identity across crossings and events; the first sample's bars are
    all fresh."""
    rows = []
    counter = [0]
    id_map = {}
    prev_pairs = None
    for sample in trace.samples:
        if sample.pairs is not prev_pairs and sample.pairs != prev_pairs:
            id_map = _remap_across(sample.pairs, id_map, counter)
            bars = sorted((bid, s, e) for (s, e), bid in id_map.items())
        prev_pairs = sample.pairs
        t, acts, degrees = sample.t, sample.actions, sample.frame[1]
        for bid, s, e in bars:
            rows.append((t, bid, acts[s], INF if e is None else acts[e],
                         degrees[s]))
    return rows


# ---------------------------------------------------------------------------
# speed audit
# ---------------------------------------------------------------------------

def drift_speed_audit(timeline, oscillation_rate):
    """Check declared drift speeds against an oscillation-rate budget.

    Per linear piece of every drift segment:
      * any moving generator must drift strictly slower than the rate
        (a motionless one is always fine);
      * where the window size changes (auditable only when the top path is
        declared) it must shrink exactly at the rate;
      * the gap between any two trajectories may close no faster than the
        rate — opening fast is fine.
    Entry events are flagged when the window edge they cross moves so fast
    that no admissible trajectory could reach it from outside.

    Each segment is read once: every action path, window edge and the rate
    are evaluated on one cut (the segment's ends and every breakpoint in
    it), and a piece's slope is a difference of those values.  A pair's gap
    is split where it changes sign, at its exact root.
    """
    segments = [it for it in timeline if isinstance(it, DriftSegment)]
    events = [it for it in timeline if isinstance(it, SingularEvent)]
    if not segments:
        return CheckReport([])
    span0 = min(s.t0 for s in segments)
    span1 = max(s.t1 for s in segments)
    rate = oscillation_rate
    if not isinstance(rate, PLPath):
        rate = PLPath.constant(rate, span0, span1)
    if rate.t_start > span0 or rate.t_end < span1:
        raise ValidationError("oscillation rate path does not cover the timeline")
    if rate.min_value() < 0:
        raise ValidationError("oscillation rate must be nonnegative")

    entries = []
    end_slopes = {}  # segment end -> (bottom, top) slope on its last piece
    for seg in segments:
        span = (seg.t0, seg.t1)
        ids = sorted(seg.actions)
        edges = [p if isinstance(p, PLPath) else None
                 for p in (seg.window_a, seg.window_b)]
        cut = merge_times(
            *[p.breakpoint_times() for p in seg.actions.values()],
            [t for t in rate.breakpoint_times() if seg.t0 <= t <= seg.t1],
            *[p.breakpoint_times() for p in edges if p], span)
        runs = list(map(sub, cut[1:], cut))
        vals = {gid: p.values_at(cut) for gid, p in seg.actions.items()}
        a, b = [p and p.values_at(cut) for p in edges]
        r = rate.values_at(cut)
        low = list(map(min, r, r[1:]))  # the rate's minimum on each piece

        def slopes(vs):
            return [(v1 - v0) / run for v0, v1, run in zip(vs, vs[1:], runs)]

        for gid in ids:
            bad = next(("|slope| = %s is not strictly below the rate %s on "
                        "[%s, %s]" % (abs(s), low[k], cut[k], cut[k + 1])
                        for k, s in enumerate(slopes(vals[gid]))
                        if s and not abs(s) < low[k]), None)
            entries.append(CheckEntry("generator-speed", gid, span,
                                      bad is None, bad or ""))

        if b is not None:
            # audit only declares on pieces where the size actually changes
            size = b if a is None else list(map(sub, b, a))
            bad = next(("window size drifts at %s instead of -rate (%s) on "
                        "[%s, %s]" % (s, r[k], cut[k], cut[k + 1])
                        for k, s in enumerate(slopes(size))
                        if s and not (r[k] == r[k + 1] and s == -r[k])), None)
            entries.append(CheckEntry("window-shrink", None, span,
                                      bad is None, bad or ""))

        def gap_flag(g1, g2):
            # |g1 - g2| closes at -slope where g1 - g2 > 0 just after a cut
            # time and at slope where it is < 0; past a root inside a piece
            # it opens, so such a piece is checked up to its root
            d = list(map(sub, vals[g1], vals[g2]))
            for k, slope in enumerate(slopes(d)):
                x0, x1 = d[k], d[k + 1]
                tb, rate_min = cut[k + 1], low[k]
                if x0 < 0 < x1 or x1 < 0 < x0:
                    tb = cut[k] + runs[k] * x0 / (x0 - x1)
                    rate_min = min(r[k], rate.value(tb))
                closing = -slope if x0 > 0 or (x0 == 0 and x1 > 0) else slope
                if closing > rate_min:
                    return ("gap between %r and %r closes at speed %s > rate "
                            "%s on [%s, %s]" % (g1, g2, closing, rate_min,
                                                cut[k], tb))
            return None

        bad = next(filter(None, (gap_flag(g1, g2) for i, g1 in enumerate(ids)
                                 for g2 in ids[i + 1:])), None)
        entries.append(CheckEntry("pair-gap", None, span, bad is None,
                                  bad or ""))
        end_slopes[seg.t1] = [Fraction(0) if e is None
                              else (e[-1] - e[-2]) / runs[-1] for e in (a, b)]

    # entry feasibility: the edge crossed must be escapable at the declared
    # rate; of several segments ending at the event, the last one counts
    for ev in events:
        if ev.edge is None or ev.exits or ev.time not in end_slopes:
            continue
        rate_at = rate.value(ev.time)
        slope = end_slopes[ev.time][ev.edge]
        # an outside trajectory (|speed| < rate, or motionless) must be able
        # to overtake the edge, which moves into the window at ``inward``
        inward = -slope if ev.edge else slope
        ok = inward < rate_at or inward < 0
        side, moves, outside = (("bottom", "rises", "below"),
                                ("top", "falls", "above"))[ev.edge]
        detail = ("" if ok else
                  "%s edge %s at %s, at least the rate %s: nothing %s the "
                  "window can catch it" % (side, moves, inward, rate_at,
                                           outside))
        entries.append(CheckEntry("entry-feasible", ev.gid, ev.time, ok,
                                  detail))
    return CheckReport(entries)


# ---------------------------------------------------------------------------
# random family generator (stress-testing fodder)
#
# Each step tries the event kinds in a random order.  The first kind that
# applies draws the step's end values (steered into its event's
# precondition) and its event; one linear segment per step then drives the
# family there.  Boundaries, couplings and differentials are random
# combinations of kernel vectors (Field.random_combination).
# ---------------------------------------------------------------------------

def _quarters(lo, hi):
    """The quarter-integers strictly between lo and hi (both finite)."""
    return [Fraction(k, 4) for k in range(int(lo * 4) + 1, int(hi * 4))]


def _random_family_start(rng, field, n, window):
    """Random complex with pairwise-distinct quarter-integer actions."""
    a, b = window
    acts = rng.sample(_quarters(a, Fraction(16) if b == INF else b), n)
    degrees = [rng.randrange(0, 4) for _ in range(n)]
    order = sorted(range(n), key=lambda i: acts[i])
    gens = []
    rows_built = {}
    for i in order:
        gid = "g%d" % i
        action, degree = acts[i], degrees[i]
        allowed = [g for (g, _act, d) in gens if d == degree - 1]
        gens.append((gid, action, degree))
        if not allowed or rng.random() < 0.25:
            continue
        # the new row must be a cycle of the part already built
        basis = linalg.kernel([rows_built.get(g, {}) for g in allowed], field)
        row = field.random_combination(
            rng, allowed, (v for v in basis if rng.random() < 0.6),
            field.random_raw)
        if row:
            rows_built[gid] = row
    return FilteredComplex(field, window, gens, rows_built)


def _random_targets(rng, state, forced, equal_ok=frozenset()):
    """End-of-segment action values: distinct, strictly inside the window,
    respecting every differential edge (forced edge/death values exempt)."""
    top = state.b
    if top == INF:
        top = max([*state.actions.values(), Fraction(8)]) + 8
    slots = _quarters(state.a, top)
    ids = sorted(state.actions)
    for _ in range(200):
        targ = dict(forced)
        used = set(targ.values())
        for gid in ids:
            if gid in targ:
                continue
            v = state.actions[gid] if rng.random() < 0.5 else rng.choice(slots)
            if v in used:
                break  # a collision: draw the whole set again
            targ[gid] = v
            used.add(v)
        else:
            if all(targ[src] == targ[tgt] if (src, tgt) in equal_ok
                   else targ[src] > targ[tgt]
                   for src, row in state.diff.items() for tgt in row):
                return targ
    raise ValidationError("could not steer the family (retry)")


def _linear_segment(state, t, t1, targets):
    paths = {gid: PLPath([(t, state.actions[gid]), (t1, targets[gid])])
             for gid in targets}
    return DriftSegment(t, t1, paths)


def _resolve_forced(rng, state, last_ev):
    """Moves the previous event imposes on the very next segment."""
    forced = {}
    if last_ev is None:
        return forced
    step = Fraction(rng.randrange(1, 5), 4)
    if last_ev.kind == "birth":
        c = last_ev.common_action
        up = c + step
        if up >= state.b:
            up = (c + state.b) / 2
        down = c - step
        if down <= state.a:
            down = (c + state.a) / 2
        forced[last_ev.x_id] = up
        forced[last_ev.y_id] = down
    elif last_ev.kind == "entry_below":
        forced[last_ev.gid] = state.a + step
    elif last_ev.kind == "entry_above":
        down = state.b - step
        if down <= state.a:
            down = (state.a + state.b) / 2
        forced[last_ev.gid] = down
    return forced


def _random_timeline_once(rng, field, max_gen, max_ev):
    finite_top = rng.random() < 0.8
    window = (Fraction(0), Fraction(16) if finite_top else INF)
    initial = _random_family_start(rng, field, rng.randrange(3, 8), window)
    state = _State(initial)
    items = []
    t = Fraction(0)
    fresh = [0]

    def new_id():
        fresh[0] += 1
        return "n%d" % fresh[0]

    n_events = rng.randrange(2, max_ev + 1)
    last_ev = None
    for _ in range(n_events):
        t1 = t + 1
        forced = _resolve_forced(rng, state, last_ev)
        cap = state.b if state.b != INF else Fraction(16)
        kinds = [HandleSlide, Birth, Death, ExitBelow, EntryBelow, ExitAbove,
                 EntryAbove, None]
        rng.shuffle(kinds)
        ev = None
        for kind in kinds:
            try:
                if kind is None:
                    targ = _random_targets(rng, state, forced)
                elif kind is HandleSlide:
                    targ = _random_targets(rng, state, forced)
                    by_deg = {}
                    for gid in targ:
                        by_deg.setdefault(state.degrees[gid], []).append(gid)
                    cands = [v for v in by_deg.values() if len(v) >= 2]
                    if not cands:
                        continue
                    group = sorted(rng.choice(cands), key=lambda g: targ[g])
                    lo = rng.choice(group[:-1])
                    hi = rng.choice([g for g in group if targ[g] > targ[lo]])
                    ev = HandleSlide(t1, target=hi, addend={lo: field.random_unit_raw(rng)})
                elif kind is Birth:
                    if len(state.degrees) + 2 > max_gen:
                        continue
                    targ = _random_targets(rng, state, forced)
                    free = [c for c in _quarters(state.a, cap)
                            if c not in targ.values()]
                    if not free:
                        continue
                    c = rng.choice(free)
                    d = rng.randrange(0, 3)
                    ev = Birth(t1, (new_id(), d + 1), (new_id(), d), c)
                elif kind is Death:
                    split = []
                    for x, row in state.diff.items():
                        if len(row) != 1:
                            continue
                        y = next(iter(row))
                        if any(s != x and (x in r or y in r)
                               for s, r in state.diff.items()):
                            continue
                        split.append((x, y))
                    if not split:
                        continue
                    x, y = rng.choice(sorted(split))
                    if x in forced or y in forced:
                        continue
                    c = rng.choice(_quarters(state.a, cap))
                    targ = _random_targets(rng, state, {**forced, x: c, y: c},
                                           equal_ok={(x, y)})
                    ev = Death(t1, x=x, y=y)
                elif (state.a, state.b)[kind.edge] == INF:
                    continue
                elif kind.exits:
                    # a bottom leaver bounds nothing, a top one is in no
                    # boundary
                    busy = (state.diff, {tgt for row in state.diff.values()
                                         for tgt in row})[kind.edge]
                    free = [g for g in state.degrees
                            if g not in busy and g not in forced]
                    if not free:
                        continue
                    g = rng.choice(sorted(free))
                    at = (state.a, state.b)[kind.edge]
                    targ = _random_targets(rng, state, {**forced, g: at})
                    ev = kind(t1, g)
                elif len(state.degrees) + 1 > max_gen:
                    continue
                else:  # an entry
                    d = rng.randrange(0, 4)
                    # the chain: a random combination of the kernel of the
                    # transposed degree d + 2 rows (couplings) or of the
                    # degree d - 1 rows (a boundary)
                    cols = sorted(g for g, e in state.degrees.items()
                                  if e == d + (1, -1)[kind.edge])
                    ups = [row for w, row in state.diff.items()
                           if state.degrees.get(w) == d + 2]
                    basis = linalg.kernel(
                        [state.diff.get(z, {}) for z in cols] if kind.edge
                        else [{k: row[z] for k, row in enumerate(ups)
                               if z in row} for z in cols], field)
                    chain = field.random_combination(
                        rng, cols, (v for v in basis if rng.random() < 0.5),
                        field.random_raw)
                    targ = _random_targets(rng, state, forced)
                    ev = kind(t1, new_id(), d, chain)
            except ValidationError:
                continue
            break
        else:
            targ = _random_targets(rng, state, forced)
        seg = _linear_segment(state, t, t1, targ)
        items.append(seg)
        state.actions = {gid: p.value(t1) for gid, p in seg.actions.items()}
        if ev is not None:
            ev.apply(state)
            items.append(ev)
        t = t1
        last_ev = ev

    # settle: resolve whatever the last event left degenerate
    forced = _resolve_forced(rng, state, last_ev)
    targ = _random_targets(rng, state, forced)
    items.append(_linear_segment(state, t, t + 1, targ))
    return initial, items


def random_timeline(rng, field, max_generators=12, max_events=10):
    """Seeded random (initial complex, timeline) pair that simulates cleanly.

    The generator steers drift segments into each event's precondition, so
    every produced timeline passes :func:`simulate`; the barcode rules it
    exercises are still checked independently by :func:`check_transitions`.
    """
    for _ in range(50):
        try:
            return _random_timeline_once(rng, field, max_generators, max_events)
        except ValidationError:
            continue
    raise ValidationError("random timeline generation kept colliding")
