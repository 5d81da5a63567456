"""One-parameter families of filtered complexes.

A timeline is an ordered mix of :class:`DriftSegment` (continuous
piecewise-linear motion of generator actions and window edges, differential
frozen) and singular events (handle slide, birth/death of a canceling pair,
exit/entry of a generator through a window edge).  :func:`simulate` replays
it exactly — rational breakpoints, rational crossing times — validating every
reachable complex, and produces a trace of samples: each holds its time,
generator actions, window and canonical id-pairing, and builds its complex
and barcode on access.  :func:`check_transitions` then verifies that each event
changed the barcode in exactly the expected way and that nothing jumps
between events; :func:`drift_speed_audit` checks the declared speed laws.

The identity of a bar over time is the pair (start generator, end generator)
of the canonical pairing, which is constant on crossing-free stretches.
"""

from collections import Counter
from fractions import Fraction

from . import linalg
from .barcodes import Bar, Barcode, _reduce
from .complexes import INF, FilteredComplex, as_action, as_degree, boundary_raw
from .errors import (ActionIncrease, ActionOutsideWindow,
                     EventPreconditionViolated, NonGenericCrossing,
                     SimultaneousBifurcations, ValidationError)
from .piecewise import PLPath, merge_times


def _as_path(value, t0, t1):
    """Accept a PLPath, a constant, or a list of (t, v) pairs.

    Breakpoints are coerced to exact actions, those of a given PLPath too.
    """
    if value is None:
        return None
    if isinstance(value, PLPath):
        value = value.points
    if isinstance(value, (list, tuple)):
        return PLPath([(as_action(t), as_action(v)) for t, v in value])
    return PLPath.constant(as_action(value), t0, t1)


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
    preconditions and edits the family state; ``admissible(pairs)`` lists
    the admissible (post-event pairing, description) pairs, none if the bar
    it acts on is missing; ``check_values(rec, pre_pairs, post_pairs)``
    returns what is wrong with the actions at the event time, or None.
    The next segment may start with a zero gap on ``zero_edges`` and
    ``zero_tops`` (differential edges, generators on the window top).
    ``edge`` is the window edge (0 bottom, 1 top) an exit or entry crosses.
    """

    kind = "event"
    zero_edges = zero_tops = ()
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
        _check_no_tie(state, tau)
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

    def check_values(self, rec, pre_pairs, post_pairs):
        if (_pairing_bars_at(pre_pairs, rec.pre_actions, rec.pre_degrees)
                != _pairing_bars_at(post_pairs, rec.post_actions,
                                    rec.post_degrees)):
            return "bar values at the slide time changed"


class Birth(SingularEvent):
    """Adjoin a canceling pair x, y with ∂x = y at a common action."""

    kind = "birth"

    def __init__(self, time, x, y, common_action):
        super().__init__(time)
        (self.x_id, x_degree), (self.y_id, y_degree) = x, y
        self.x_degree, self.y_degree = as_degree(x_degree), as_degree(y_degree)
        self.common_action = as_action(common_action)
        self.zero_edges = ((self.x_id, self.y_id),)

    def apply(self, state):
        _require_resolved(state, self)
        _check_no_tie(state, self.time)
        for gid in (self.x_id, self.y_id):
            if gid in state.degrees:
                raise EventPreconditionViolated("birth id %r already in use" % gid)
        if self.x_id == self.y_id:
            raise EventPreconditionViolated("birth pair needs two distinct ids")
        if self.x_degree != self.y_degree + 1:
            raise EventPreconditionViolated(
                "birth pair degrees must differ by one (x one above y)")
        if not (state.a <= self.common_action
                and (state.b == INF or self.common_action < state.b)):
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

    def check_values(self, rec, pre_pairs, post_pairs):
        if not (rec.post_actions[self.x_id] == self.common_action
                and rec.post_actions[self.y_id] == self.common_action):
            return "born pair is not at the common action"


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
        _require_resolved(state, self, gaps_ok={(x, y)})
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
        _check_no_tie(state, self.time, exempt=frozenset({x, y}))
        for gid in (x, y):
            state.degrees.pop(gid)
            state.actions.pop(gid)
            state.diff.pop(gid, None)

    def admissible(self, pairs):
        if (self.y_id, self.x_id) not in pairs:
            return []
        return [(frozenset(pairs - {(self.y_id, self.x_id)}),
                 "the collided bar removed")]

    def check_values(self, rec, pre_pairs, post_pairs):
        if rec.pre_actions[self.x_id] != rec.pre_actions[self.y_id]:
            return "dying pair actions differ at the event time"


class _WindowEdgeEvent(SingularEvent):
    """A generator leaving (``exits``) or entering the window through
    ``edge``; its action sits on that edge before an exit, after an entry."""

    exits = True

    def __init__(self, time, gid):
        super().__init__(time)
        self.gid = gid

    def check_values(self, rec, pre_pairs, post_pairs):
        acts = rec.pre_actions if self.exits else rec.post_actions
        if acts[self.gid] != rec.window[self.edge]:
            return ("the generator is not on the %s edge"
                    % ("bottom", "top")[self.edge])


class ExitBelow(_WindowEdgeEvent):
    kind = "exit_below"
    edge = 0

    def apply(self, state):
        g = self.gid
        if g not in state.degrees:
            raise EventPreconditionViolated("exiting generator %r not present" % g)
        _require_resolved(state, self)
        if state.actions[g] != state.a:
            raise EventPreconditionViolated(
                "exit below requires action(%s) = window bottom %s at t = %s, "
                "got %s" % (g, state.a, self.time, state.actions[g]))
        _check_no_tie(state, self.time)
        # a generator on the (closed) bottom edge is automatically a cycle:
        # a target would need strictly smaller action than the window allows
        assert not state.diff.get(g)  # invariant: replay keeps targets in [a, action(g))
        state.degrees.pop(g)
        state.actions.pop(g)
        state.diff.pop(g, None)
        for src in list(state.diff):
            row = state.diff[src]
            if g in row:
                row.pop(g)  # quotient: terms below the window are dropped
                if not row:
                    state.diff.pop(src)

    def admissible(self, pairs):
        mine = [(s, e) for (s, e) in pairs if s == self.gid]
        if len(mine) != 1:
            return []
        s, e = mine[0]
        rest = pairs - {(s, e)}
        if e is None:
            return [(frozenset(rest), "the exiting infinite bar removed")]
        return [(frozenset(rest | {(e, None)}),
                 "finite bar from the bottom replaced by an infinite one")]


class ExitAbove(_WindowEdgeEvent):
    kind = "exit_above"
    edge = 1

    def apply(self, state):
        g = self.gid
        if state.b == INF:
            raise EventPreconditionViolated("exit above needs a finite window top")
        if g not in state.degrees:
            raise EventPreconditionViolated("exiting generator %r not present" % g)
        _require_resolved(state, self, top_ok={g})
        if state.actions[g] != state.b:
            raise EventPreconditionViolated(
                "exit above requires action(%s) = window top %s at t = %s, "
                "got %s" % (g, state.b, self.time, state.actions[g]))
        _check_no_tie(state, self.time)
        for src, row in state.diff.items():
            if g in row:
                raise EventPreconditionViolated(
                    "%r cannot exit above: it appears in the boundary of %r"
                    % (g, src))
        state.degrees.pop(g)
        state.actions.pop(g)
        state.diff.pop(g, None)

    def admissible(self, pairs):
        g = self.gid
        ends = [(s, e) for (s, e) in pairs if e == g]
        if ends:
            s, e = ends[0]
            return [(frozenset((pairs - {(s, e)}) | {(s, None)}),
                     "bar ending at the top becomes infinite")]
        if (g, None) in pairs:
            return [(frozenset(pairs - {(g, None)}),
                     "the exiting infinite bar removed")]
        return []


class EntryBelow(_WindowEdgeEvent):
    """Generator enters at the bottom edge.

    ``couplings`` maps existing generator ids (one degree up) to the
    coefficient with which the newcomer appears in their differential; the
    row must annihilate the image from two degrees up so ∂² stays zero.
    """

    kind = "entry_below"
    edge = 0
    exits = False

    def __init__(self, time, gid, degree, couplings=None):
        super().__init__(time, gid)
        self.degree = as_degree(degree)
        self.couplings = dict(couplings or {})

    def apply(self, state):
        g, field = self.gid, state.field
        if g in state.degrees:
            raise EventPreconditionViolated("entering id %r already in use" % g)
        _require_resolved(state, self)
        _check_no_tie(state, self.time)
        couplings = {}
        for z, c in self.couplings.items():
            if z not in state.degrees:
                raise EventPreconditionViolated("coupling id %r not present" % z)
            if state.degrees[z] != self.degree + 1:
                raise EventPreconditionViolated(
                    "coupling %r must be one degree above the newcomer" % z)
            cc = field.coerce(c)
            if cc:
                couplings[z] = cc
        # ∂² stays zero iff the coupling row annihilates the image two up
        for w, row in state.diff.items():
            if state.degrees.get(w) != self.degree + 2:
                continue
            acc = field.zero_raw
            for z, c in couplings.items():
                if z in row:
                    acc = field.add(acc, field.mul(row[z], c))
            if acc:
                raise EventPreconditionViolated(
                    "couplings break ∂² = 0 (witness %r)" % w)
        if any(act == state.a for act in state.actions.values()):
            raise NonGenericCrossing(
                "entry at the bottom collides with a generator at action %s"
                % state.a)
        state.degrees[g] = self.degree
        state.actions[g] = state.a
        for z, c in couplings.items():
            state.diff.setdefault(z, {})[g] = c

    def admissible(self, pairs):
        g = self.gid
        out = [(frozenset(pairs | {(g, None)}),
                "a fresh infinite bar starts at the bottom")]
        for (s, e) in pairs:
            if e is None:
                out.append((frozenset((pairs - {(s, None)}) | {(g, s)}),
                            "an infinite bar now starts at the bottom (killed by %r)" % s))
        return out


class EntryAbove(_WindowEdgeEvent):
    """Generator enters at the top edge carrying its own boundary chain."""

    kind = "entry_above"
    edge = 1
    exits = False

    def __init__(self, time, gid, degree, boundary=None):
        super().__init__(time, gid)
        self.degree = as_degree(degree)
        self.boundary = dict(boundary or {})
        self.zero_tops = (self.gid,)

    def apply(self, state):
        g, field = self.gid, state.field
        if state.b == INF:
            raise EventPreconditionViolated("entry above needs a finite window top")
        if g in state.degrees:
            raise EventPreconditionViolated("entering id %r already in use" % g)
        _require_resolved(state, self)
        _check_no_tie(state, self.time)
        boundary = {}
        for y, c in self.boundary.items():
            if y not in state.degrees:
                raise EventPreconditionViolated("boundary id %r not present" % y)
            if state.degrees[y] != self.degree - 1:
                raise EventPreconditionViolated(
                    "boundary of the newcomer must live one degree down")
            cc = field.coerce(c)
            if cc:
                boundary[y] = cc
        acc = boundary_raw(field, state.diff, boundary)
        if acc:
            raise EventPreconditionViolated(
                "entry boundary is not a cycle (witness %r)" % sorted(acc)[0])
        state.degrees[g] = self.degree
        state.actions[g] = state.b
        if boundary:
            state.diff[g] = boundary

    def admissible(self, pairs):
        g = self.gid
        out = [(frozenset(pairs | {(g, None)}),
                "a fresh infinite bar starts at the top")]
        for (s, e) in pairs:
            if e is None:
                out.append((frozenset((pairs - {(s, None)}) | {(s, g)}),
                            "an infinite bar is now cut off at the top"))
        return out


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
    """A segment's samples, crossings, and every generator's action at each
    critical time (``values[gid][k]`` at ``critical[k]``)."""

    __slots__ = ("degrees", "crossings", "sample_indices", "critical", "values")

    def __init__(self, degrees, crossings, sample_indices, critical, values):
        self.degrees = degrees
        self.crossings = crossings
        self.sample_indices = sample_indices
        self.critical = critical
        self.values = values

    def critical_actions(self, k):
        return {gid: vals[k] for gid, vals in self.values.items()}


class EventRecord:
    __slots__ = ("event", "pre_actions", "post_actions", "window",
                 "pre_degrees", "post_degrees", "pre_sample", "post_sample")

    def __init__(self, event, pre_actions, post_actions, window,
                 pre_degrees, post_degrees):
        self.event = event
        self.pre_actions = pre_actions
        self.post_actions = post_actions
        self.window = window
        self.pre_degrees = pre_degrees
        self.post_degrees = post_degrees
        self.pre_sample = None  # set by simulate
        self.post_sample = None


class FamilyTrace:
    """Output of :func:`simulate`: ordered samples plus event bookkeeping."""

    def __init__(self, field):
        self.field = field
        self.samples = []
        self.segments = []
        self.events = []

    def add_sample(self, t, actions, window, frame):
        field, _degrees, diff = frame
        order = sorted(actions, key=lambda gid: (actions[gid], gid))
        R, _V, killer_of = _reduce(field, order,
                                   [diff.get(gid, {}) for gid in order])
        pairs = frozenset([(order[i], order[j]) for i, j in killer_of.items()]
                          + [(order[m], None) for m, r in enumerate(R)
                             if not r and m not in killer_of])
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
    """Mutable family state between timeline items.

    ``pending_gap_zero`` / ``pending_top_zero`` record degeneracies the last
    segment produced exactly at its right endpoint; the next event must
    account for every one of them (a death for a vanished gap, an exit above
    for a generator touching the top) or the timeline is rejected.
    """

    __slots__ = ("field", "degrees", "actions", "a", "b", "diff",
                 "pending_gap_zero", "pending_top_zero")

    def __init__(self, cx):
        self.field = cx.field
        self.degrees = {g.id: g.degree for g in cx.generators}
        self.actions = {g.id: g.action for g in cx.generators}
        self.a, self.b = cx.window
        self.diff = {g.id: dict(cx.differential_raw(g.id))
                     for g in cx.generators if cx.differential_raw(g.id)}
        self.pending_gap_zero = set()
        self.pending_top_zero = set()

    def frame(self):
        """(field, degrees, differential), copied: events edit rows in place."""
        return (self.field, dict(self.degrees),
                {src: dict(row) for src, row in self.diff.items()})

    def add_sample(self, trace, t, frame):
        trace.add_sample(t, dict(self.actions), (self.a, self.b), frame)


def simulate(initial, timeline):
    """Replay a timeline exactly; returns a :class:`FamilyTrace`.

    Raises SimultaneousBifurcations / EventPreconditionViolated /
    NonGenericCrossing / ActionIncrease / ActionOutsideWindow as soon as a
    violation becomes reachable.  Failures of the *expected barcode rules*
    are not exceptions — they come out of :func:`check_transitions`.
    """
    if not isinstance(initial, FilteredComplex):
        raise ValidationError("initial must be a FilteredComplex")
    trace = FamilyTrace(initial.field)
    state = _State(initial)

    items = list(timeline)
    if not items:
        state.add_sample(trace, as_action(0), state.frame())
        return trace
    if not isinstance(items[0], DriftSegment):
        raise ValidationError("a timeline must start with a drift segment")

    cursor = None
    last_event = None  # event waiting for its following segment
    for idx, item in enumerate(items):
        if isinstance(item, DriftSegment):
            if cursor is None:
                cursor = item.t0
                state.add_sample(trace, cursor, state.frame())
            elif item.t0 != cursor:
                raise ValidationError(
                    "segment %d starts at %s but the family is at %s"
                    % (idx, item.t0, cursor))
            if last_event is not None:
                trace.events[-1].post_sample = len(trace.samples)
            _run_segment(trace, state, item, entering_event=last_event)
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
            _apply_event(trace, state, item)
            trace.events[-1].pre_sample = len(trace.samples) - 1
            last_event = item
        else:
            raise ValidationError(
                "timeline item %d is neither a segment nor an event" % idx)

    # the family must end in a valid complex: an ending degeneracy (pending
    # tie / top touch) that no event resolved is rejected here
    if state.pending_gap_zero:
        src, tgt = sorted(state.pending_gap_zero)[0]
        raise ActionIncrease(
            "differential edge %r -> %r loses strict action decrease at the "
            "end of the timeline" % (src, tgt))
    if state.pending_top_zero:
        raise ActionOutsideWindow(
            "generator %r sits on the window top at the end of the timeline"
            % sorted(state.pending_top_zero)[0])
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


def _run_segment(trace, state, seg, entering_event=None):
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

    # 2. exact crossing detection (pairwise); coincidence on an interval is
    # never generic.  Paths with disjoint value ranges never meet, so their
    # difference is never built; pairs keep their sorted-id order.
    crossings = set()
    ranges = {gid: (p.min_value(), p.max_value()) for gid, p in paths.items()}
    for i, g1 in enumerate(ids):
        lo1, hi1 = ranges[g1]
        for g2 in ids[i + 1:]:
            lo2, hi2 = ranges[g2]
            if hi1 < lo2 or hi2 < lo1:
                continue
            roots, flats = (paths[g1] - paths[g2]).zeros()
            if flats:
                raise NonGenericCrossing(
                    "trajectories of %r and %r coincide on an interval"
                    % (g1, g2))
            crossings.update(roots)

    # 3. critical times (breakpoints of everything + crossings) only drive
    # sampling and the crossing checks: each gap below is linear between its
    # own breakpoints
    bp = [p.breakpoint_times() for p in paths.values()]
    bp.append(a_path.breakpoint_times())
    if b_path != INF:
        bp.append(b_path.breakpoint_times())
    bp.append(sorted(crossings))
    critical = merge_times(*bp)

    def _edge_ok(gap_path, zero_ok_at):
        # affine pieces: > 0 on the open interior means endpoints >= 0 and
        # not both zero; endpoint zeros only where an event justifies them;
        # the witness is the first bad time, a piece going negative its zero
        for ta, va, tb, vb in gap_path.pieces():
            if va < 0:
                return ta
            if vb < 0:
                return ta + (tb - ta) * va / (va - vb)
            if va == 0 and vb == 0:
                return ta
            if va == 0 and ta not in zero_ok_at:
                return ta
            if vb == 0 and tb not in zero_ok_at:
                return tb
        return None

    # gaps the entering event leaves at zero (a birth's edge, an entry on top)
    zero_edges = entering_event.zero_edges if entering_event else ()
    zero_tops = entering_event.zero_tops if entering_event else ()

    # 4a. strict action decrease along every differential edge
    pending_gaps = set()
    for src, row in state.diff.items():
        for tgt in row:
            gap = paths[src] - paths[tgt]
            ok = {t1}  # tentatively: a death at t1 must claim it
            if (src, tgt) in zero_edges:
                ok.add(t0)
            witness = _edge_ok(gap, ok)
            if witness is not None:
                raise ActionIncrease(
                    "differential edge %r -> %r loses strict action decrease "
                    "at t = %s" % (src, tgt, witness))
            if gap.end_value == 0:
                pending_gaps.add((src, tgt))

    # 4b. window containment (bottom is closed, top is open)
    pending_top = set()
    for gid in ids:
        for ta, va, tb, vb in (paths[gid] - a_path).pieces():
            if va < 0 or vb < 0:
                raise ActionOutsideWindow(
                    "generator %r dips below the window bottom in [%s, %s]"
                    % (gid, ta, tb))
        if b_path != INF:
            top_gap = b_path - paths[gid]
            ok = {t1}  # tentatively: an exit above at t1 must claim it
            if gid in zero_tops:
                ok.add(t0)
            witness = _edge_ok(top_gap, ok)
            if witness is not None:
                raise ActionOutsideWindow(
                    "generator %r reaches the window top at t = %s"
                    % (gid, witness))
            if top_gap.end_value == 0:
                pending_top.add(gid)

    # 5. sampling at the midpoint of every stretch between critical times —
    # in particular just after an event at t0 and just before one at t1.
    # Every breakpoint is a critical time, so each path is affine between
    # critical times and its midpoint value is the mean of its end values.
    def mid(vals):
        return [(x + y) / 2 for x, y in zip(vals, vals[1:])]

    values = {gid: paths[gid].values_at(critical) for gid in ids}
    mids = {gid: mid(vals) for gid, vals in values.items()}
    times = mid(critical)
    acts = [{gid: col[k] for gid, col in mids.items()} for k in range(len(times))]
    tops = ([INF] * len(times) if b_path == INF
            else mid(b_path.values_at(critical)))
    wins = list(zip(mid(a_path.values_at(critical)), tops))
    frame = state.frame()
    _complex_at(frame, acts[0], wins[0])  # ids, degrees and ∂², once
    for a, b in wins:  # the gap checks cover this unless no generator is left
        if not a < b:
            raise ValidationError("empty window [%s, %s)" % (a, b))
    first = len(trace.samples)
    for t, act, win in zip(times, acts, wins):
        trace.add_sample(t, act, win, frame)
    trace.segments.append(SegmentTrace(
        frame[1], sorted(crossings), list(range(first, len(trace.samples))),
        critical, values))

    # 6. advance the state to t1
    state.actions = {gid: vals[-1] for gid, vals in values.items()}
    state.a = a_path.end_value
    state.b = INF if b_path == INF else b_path.end_value
    state.pending_gap_zero = pending_gaps
    state.pending_top_zero = pending_top


def _check_no_tie(state, tau, exempt=frozenset()):
    seen = {}
    for gid, act in sorted(state.actions.items()):
        if act in seen and not ({gid, seen[act]} <= exempt):
            raise NonGenericCrossing(
                "generators %r and %r share action %s exactly at the singular "
                "time t = %s" % (seen[act], gid, act, tau))
        seen[act] = gid


def _require_resolved(state, ev, gaps_ok=frozenset(), top_ok=frozenset()):
    stray = state.pending_gap_zero - set(gaps_ok)
    if stray:
        src, tgt = sorted(stray)[0]
        raise ActionIncrease(
            "differential edge %r -> %r loses strict action decrease at "
            "t = %s and the %s event does not resolve it"
            % (src, tgt, ev.time, ev.kind))
    stray = state.pending_top_zero - set(top_ok)
    if stray:
        raise ActionOutsideWindow(
            "generator %r reaches the window top at t = %s and the %s event "
            "does not resolve it" % (sorted(stray)[0], ev.time, ev.kind))


def _apply_event(trace, state, ev):
    pre_actions = dict(state.actions)
    pre_degrees = dict(state.degrees)
    ev.apply(state)
    state.pending_gap_zero = set()
    state.pending_top_zero = set()
    trace.events.append(EventRecord(
        ev, pre_actions, dict(state.actions),
        (state.a, state.b), pre_degrees, dict(state.degrees)))


# ---------------------------------------------------------------------------
# transition checking — expected barcode rules at each event
# ---------------------------------------------------------------------------

class CheckEntry:
    __slots__ = ("kind", "time", "ok", "detail")

    def __init__(self, kind, time, ok, detail=""):
        self.kind = kind
        self.time = time
        self.ok = ok
        self.detail = detail

    def __repr__(self):
        return "CheckEntry(%s @ t=%s: %s%s)" % (
            self.kind, self.time, "ok" if self.ok else "FAIL",
            " — " + self.detail if self.detail else "")


class TransitionReport:
    def __init__(self, entries):
        self.entries = list(entries)

    @property
    def ok(self):
        return all(e.ok for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e.ok]


def _step_entry(s1, s2, t, acts, degrees):
    """Check two consecutive samples: across a crossing at t (``acts`` the
    actions there) the bar values must match, elsewhere the pairing stays.
    Pairs both samples share give the same bars, so only the others count."""
    if acts is None:
        ok = s1.pairs == s2.pairs
        return CheckEntry("continuity", t, ok,
                          "" if ok else "pairing changed without a crossing")
    ok = (_pairing_bars_at(s1.pairs - s2.pairs, acts, degrees)
          == _pairing_bars_at(s2.pairs - s1.pairs, acts, degrees))
    return CheckEntry("crossing", t, ok, "" if ok else
                      "bar endpoint values jump across the crossing")


def check_transitions(trace):
    """Verify barcode continuity along segments and the jump rule at events.

    Returns a :class:`TransitionReport`; nothing is raised for rule
    failures, so a broken family can be inspected.
    """
    entries = []

    def end_entry(st, k, s1, s2):
        # the family's first and last sample sit on its ends, in no
        # segment's samples: across a crossing there, check them too
        if st.critical[k] in st.crossings:
            entries.append(_step_entry(s1, s2, st.critical[k],
                                       st.critical_actions(k), st.degrees))

    if trace.segments:
        end_entry(trace.segments[0], 0, trace.samples[0], trace.samples[1])

    # --- continuity along each segment -----------------------------------
    for st in trace.segments:
        crossings = set(st.crossings)
        for k in range(1, len(st.sample_indices)):
            s1, s2 = (trace.samples[i] for i in st.sample_indices[k - 1:k + 1])
            # consecutive samples are separated by exactly critical[k]
            c = st.critical[k]
            entries.append(
                _step_entry(s1, s2, c, st.critical_actions(k), st.degrees)
                if c in crossings else _step_entry(s1, s2, s2.t, None, None))

    if trace.segments:
        end_entry(trace.segments[-1], -1, trace.samples[-2], trace.samples[-1])

    # --- continuity across event-free segment boundaries ------------------
    # (simulate makes paths continuous there, so the actions agree at T)
    event_times = {rec.event.time for rec in trace.events}
    for st_a, st_b in zip(trace.segments, trace.segments[1:]):
        T = st_a.critical[-1]
        if T != st_b.critical[0] or T in event_times:
            continue
        s1 = trace.samples[st_a.sample_indices[-1]]
        s2 = trace.samples[st_b.sample_indices[0]]
        crossing = T in st_a.crossings or T in st_b.crossings
        entries.append(_step_entry(
            s1, s2, T, st_a.critical_actions(-1) if crossing else None,
            st_a.degrees))

    # --- the jump rule at each event --------------------------------------
    for rec in trace.events:
        ev = rec.event
        pre = trace.samples[rec.pre_sample]
        post = trace.samples[rec.post_sample]
        candidates = ev.admissible(pre.pairs)
        if not candidates:
            entries.append(CheckEntry(
                ev.kind, ev.time, False,
                "pre-event pairing lacks the bar the event should act on"))
            continue
        match = next((d for p, d in candidates if post.pairs == p), None)
        if match is None:
            entries.append(CheckEntry(
                ev.kind, ev.time, False,
                "post-event pairing is not an admissible transform "
                "(expected one of: %s)" % "; ".join(d for _, d in candidates)))
            continue

        # value-level checks at the event time itself
        failure = ev.check_values(rec, pre.pairs, post.pairs)
        ok, detail = failure is None, failure or match

        # locality: every untouched bar keeps its endpoint values at τ
        if ok:
            shared = pre.pairs & post.pairs
            for s, e in shared:
                vals_pre = (rec.pre_actions[s],
                            INF if e is None else rec.pre_actions[e])
                vals_post = (rec.post_actions[s],
                             INF if e is None else rec.post_actions[e])
                if vals_pre != vals_post:
                    ok = False
                    detail = "bar (%r, %r) moved during the event" % (s, e)
                    break
        entries.append(CheckEntry(ev.kind, ev.time, ok, detail))

    return TransitionReport(entries)


# ---------------------------------------------------------------------------
# vineyard: persistent bar identities across the whole trace
# ---------------------------------------------------------------------------

def _remap_across(old_pairs, new_pairs, id_map, counter):
    """Carry bar ids over a pairing change (crossing or event).

    Order of matching: identical id-pairs first; then bars with the same end
    generator (value continuity forces the match); then the same start
    generator; whatever is left gets a fresh id.
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
    for p in todo:
        new_map[p] = "b%03d" % counter[0]
        counter[0] += 1
    return new_map


def vineyard_rows(trace):
    """Rows (t, bar_id, start, end, degree) for every sample, bars tracked
    by identity across crossings and events."""
    rows = []
    counter = [0]
    id_map = {}
    prev_pairs = None
    for sample in trace.samples:
        if prev_pairs is None:
            id_map = {}
            for p in sorted(sample.pairs, key=lambda q: (str(q[0]), str(q[1]))):
                id_map[p] = "b%03d" % counter[0]
                counter[0] += 1
        elif sample.pairs != prev_pairs:
            id_map = _remap_across(prev_pairs, sample.pairs, id_map, counter)
        prev_pairs = sample.pairs
        acts, degrees = sample.actions, sample.frame[1]
        for p in sorted(sample.pairs, key=lambda q: id_map[q]):
            s, e = p
            rows.append((sample.t, id_map[p], acts[s],
                         INF if e is None else acts[e], degrees[s]))
    return rows


# ---------------------------------------------------------------------------
# speed audit
# ---------------------------------------------------------------------------

class AuditEntry:
    __slots__ = ("kind", "subject", "span", "ok", "detail")

    def __init__(self, kind, subject, span, ok, detail=""):
        self.kind = kind
        self.subject = subject
        self.span = span
        self.ok = ok
        self.detail = detail

    def __repr__(self):
        return "AuditEntry(%s %r on %s: %s%s)" % (
            self.kind, self.subject, self.span, "ok" if self.ok else "FLAG",
            " — " + self.detail if self.detail else "")


class AuditReport:
    def __init__(self, entries):
        self.entries = list(entries)

    @property
    def ok(self):
        return all(e.ok for e in self.entries)

    def flags(self):
        return [e for e in self.entries if not e.ok]


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
    """
    segments = [it for it in timeline if isinstance(it, DriftSegment)]
    events = [it for it in timeline if isinstance(it, SingularEvent)]
    if not segments:
        return AuditReport([])
    span0 = min(s.t0 for s in segments)
    span1 = max(s.t1 for s in segments)
    if not isinstance(oscillation_rate, PLPath):
        oscillation_rate = PLPath.constant(as_action(oscillation_rate),
                                           span0, span1)
    if oscillation_rate.t_start > span0 or oscillation_rate.t_end < span1:
        raise ValidationError("oscillation rate path does not cover the timeline")
    if oscillation_rate.min_value() < 0:
        raise ValidationError("oscillation rate must be nonnegative")

    entries = []
    for seg in segments:
        ids = sorted(seg.actions)
        paths = seg.actions
        a_path = seg.window_a
        b_path = seg.window_b
        cuts = [p.breakpoint_times() for p in paths.values()]
        cuts.append([t for t in oscillation_rate.breakpoint_times()
                     if seg.t0 <= t <= seg.t1])
        for p in (a_path, b_path):
            if isinstance(p, PLPath):
                cuts.append(p.breakpoint_times())
        cuts.append([seg.t0, seg.t1])
        times = merge_times(*cuts)
        pieces = list(zip(times, times[1:]))

        for gid in ids:
            bad = None
            for ta, tb in pieces:
                slope = paths[gid].slope_after(ta)
                if slope == 0:
                    continue
                rate_min = min(oscillation_rate.value(ta),
                               oscillation_rate.value(tb))
                if not (abs(slope) < rate_min):
                    bad = (ta, tb, slope, rate_min)
                    break
            entries.append(AuditEntry(
                "generator-speed", gid, (seg.t0, seg.t1), bad is None,
                "" if bad is None else
                "|slope| = %s is not strictly below the rate %s on [%s, %s]"
                % (abs(bad[2]), bad[3], bad[0], bad[1])))

        if isinstance(b_path, PLPath):
            ap = a_path or PLPath.constant(as_action(0), seg.t0, seg.t1)
            # audit only declares on pieces where the size actually changes
            bad = None
            for ta, tb in pieces:
                size_slope = (b_path.slope_after(ta)
                              - (ap.slope_after(ta) if isinstance(ap, PLPath) else 0))
                if size_slope == 0:
                    continue
                r0, r1 = oscillation_rate.value(ta), oscillation_rate.value(tb)
                if not (r0 == r1 and size_slope == -r0):
                    bad = (ta, tb, size_slope, r0)
                    break
            entries.append(AuditEntry(
                "window-shrink", None, (seg.t0, seg.t1), bad is None,
                "" if bad is None else
                "window size drifts at %s instead of -rate (%s) on [%s, %s]"
                % (bad[2], bad[3], bad[0], bad[1])))

        bad = None
        for i, g1 in enumerate(ids):
            for g2 in ids[i + 1:]:
                diff = paths[g1] - paths[g2]
                roots, _flats = diff.zeros()
                cut = merge_times(times, roots)
                for ta, tb in zip(cut, cut[1:]):
                    va, vb = diff.value(ta), diff.value(tb)
                    if va == 0 and vb == 0:
                        continue
                    slope = (vb - va) / (tb - ta)
                    # the (unsigned) gap |g1 - g2| closes at this speed:
                    closing = -slope if (va > 0 or (va == 0 and vb > 0)) else slope
                    rate_min = min(oscillation_rate.value(ta),
                                   oscillation_rate.value(tb))
                    if closing > rate_min:
                        bad = (g1, g2, ta, tb, closing, rate_min)
                        break
                if bad:
                    break
            if bad:
                break
        entries.append(AuditEntry(
            "pair-gap", None, (seg.t0, seg.t1), bad is None,
            "" if bad is None else
            "gap between %r and %r closes at speed %s > rate %s on [%s, %s]"
            % (bad[0], bad[1], bad[4], bad[5], bad[2], bad[3])))

    # entry feasibility: the edge crossed must be escapable at the declared rate
    for ev in events:
        if ev.edge is None or ev.exits:
            continue
        before = [s for s in segments if s.t1 == ev.time]
        if not before:
            continue
        seg = before[-1]
        rate = oscillation_rate.value(ev.time)
        edge = (seg.window_a, seg.window_b)[ev.edge]
        slope = (edge.slope_before(ev.time) if isinstance(edge, PLPath)
                 else as_action(0))
        # an outside trajectory (|speed| < rate, or motionless) must be able
        # to overtake the edge, which moves into the window at ``inward``
        inward = -slope if ev.edge else slope
        ok = inward < rate or inward < 0
        side, moves, outside = (("bottom", "rises", "below"),
                                ("top", "falls", "above"))[ev.edge]
        detail = ("" if ok else
                  "%s edge %s at %s, at least the rate %s: nothing %s the "
                  "window can catch it" % (side, moves, inward, rate, outside))
        entries.append(AuditEntry("entry-feasible", ev.gid, ev.time, ok,
                                  detail))
    return AuditReport(entries)


# ---------------------------------------------------------------------------
# random family generator (stress-testing fodder)
# ---------------------------------------------------------------------------

def _random_family_start(rng, field, n, window):
    """Random complex with pairwise-distinct quarter-integer actions."""
    a, b = window
    top = Fraction(16) if b == INF else b
    slots = [Fraction(k, 4) for k in range(int(a * 4) + 1, int(top * 4))]
    acts = rng.sample(slots, n)
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
        row = _random_combo(rng, field, allowed, basis, 0.6)
        if row:
            rows_built[gid] = row
    return FilteredComplex(field, window, gens, rows_built)


def _random_targets(rng, state, forced, forbidden, equal_ok=frozenset()):
    """End-of-segment action values: distinct, strictly inside the window,
    respecting every differential edge (forced edge/death values exempt)."""
    a, b = state.a, state.b
    if b == INF:
        top = max([v for v in state.actions.values()] + [Fraction(8)]) + 8
    else:
        top = b
    slots = [Fraction(k, 4) for k in range(int(a * 4) + 1, int(top * 4))]
    ids = sorted(state.actions)
    for _ in range(200):
        targ = dict(forced)
        used = set(targ.values()) | set(forbidden)
        ok = True
        for gid in ids:
            if gid in targ:
                continue
            v = state.actions[gid] if rng.random() < 0.5 else rng.choice(slots)
            if v in used:
                ok = False
                break
            targ[gid] = v
            used.add(v)
        if not ok:
            continue
        for src, row in state.diff.items():
            for tgt in row:
                if (src, tgt) in equal_ok:
                    if targ[src] != targ[tgt]:
                        ok = False
                elif not targ[src] > targ[tgt]:
                    ok = False
        if ok:
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
        if state.b != INF and up >= state.b:
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


def _cycle_space(state, degree):
    """Basis of cycles among the current generators of the given degree."""
    cols = sorted(g for g, d in state.degrees.items() if d == degree)
    if not cols:
        return cols, []
    return cols, linalg.kernel([state.diff.get(g, {}) for g in cols],
                               state.field)


def _coupling_space(state, degree):
    """Basis of admissible entry couplings one degree above ``degree``."""
    cols = sorted(g for g, d in state.degrees.items() if d == degree + 1)
    if not cols:
        return cols, []
    ups = [row for w, row in state.diff.items()
           if state.degrees.get(w) == degree + 2]
    return cols, linalg.kernel([{k: row[z] for k, row in enumerate(ups)
                                 if z in row} for z in cols], state.field)


def _random_combo(rng, field, cols, basis, p):
    """A random combination of the basis, each vector kept with probability p."""
    vec = [field.zero_raw] * len(cols)
    for bvec in basis:
        if rng.random() < p:
            c = field.random_raw(rng)
            vec = [field.add(v, field.mul(c, w)) for v, w in zip(vec, bvec)]
    return {cols[k]: v for k, v in enumerate(vec) if v}


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
        kinds = ["handle_slide", "birth", "death", "exit_below", "entry_below",
                 "exit_above", "entry_above", None]
        rng.shuffle(kinds)
        seg = ev = None
        for kind in kinds:
            try:
                if kind is None:
                    targ = _random_targets(rng, state, forced, ())
                    seg = _linear_segment(state, t, t1, targ)
                elif kind == "handle_slide":
                    targ = _random_targets(rng, state, forced, ())
                    by_deg = {}
                    for gid in targ:
                        by_deg.setdefault(state.degrees[gid], []).append(gid)
                    cands = [v for v in by_deg.values() if len(v) >= 2]
                    if not cands:
                        continue
                    group = sorted(rng.choice(cands), key=lambda g: targ[g])
                    lo = rng.choice(group[:-1])
                    hi = rng.choice([g for g in group if targ[g] > targ[lo]])
                    seg = _linear_segment(state, t, t1, targ)
                    ev = HandleSlide(t1, target=hi, addend={lo: field.random_unit_raw(rng)})
                elif kind == "birth":
                    if len(state.degrees) + 2 > max_gen:
                        continue
                    targ = _random_targets(rng, state, forced, ())
                    cap = state.b if state.b != INF else Fraction(16)
                    free = [Fraction(k, 4)
                            for k in range(int(state.a * 4) + 1, int(cap * 4))
                            if Fraction(k, 4) not in targ.values()]
                    if not free:
                        continue
                    c = rng.choice(free)
                    d = rng.randrange(0, 3)
                    seg = _linear_segment(state, t, t1, targ)
                    ev = Birth(t1, (new_id(), d + 1), (new_id(), d), c)
                elif kind == "death":
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
                    cap = state.b if state.b != INF else Fraction(16)
                    c = Fraction(rng.randrange(int(state.a * 4) + 1,
                                               int(cap * 4)), 4)
                    targ = _random_targets(rng, state, {**forced, x: c, y: c},
                                           (), equal_ok={(x, y)})
                    seg = _linear_segment(state, t, t1, targ)
                    ev = Death(t1, x=x, y=y)
                elif kind == "exit_below":
                    cyc = [g for g in state.degrees
                           if not state.diff.get(g) and g not in forced]
                    if not cyc:
                        continue
                    g = rng.choice(sorted(cyc))
                    targ = _random_targets(rng, state, {**forced, g: state.a}, ())
                    seg = _linear_segment(state, t, t1, targ)
                    ev = ExitBelow(t1, g)
                elif kind == "entry_below":
                    if len(state.degrees) + 1 > max_gen:
                        continue
                    d = rng.randrange(0, 4)
                    cols, basis = _coupling_space(state, d)
                    couplings = _random_combo(rng, field, cols, basis, 0.5)
                    targ = _random_targets(rng, state, forced, ())
                    seg = _linear_segment(state, t, t1, targ)
                    ev = EntryBelow(t1, new_id(), d, couplings)
                elif kind == "exit_above":
                    if state.b == INF:
                        continue
                    targets_of = {tgt for row in state.diff.values()
                                  for tgt in row}
                    free = [g for g in state.degrees
                            if g not in targets_of and g not in forced]
                    if not free:
                        continue
                    g = rng.choice(sorted(free))
                    targ = _random_targets(rng, state, {**forced, g: state.b}, ())
                    seg = _linear_segment(state, t, t1, targ)
                    ev = ExitAbove(t1, g)
                elif kind == "entry_above":
                    if state.b == INF or len(state.degrees) + 1 > max_gen:
                        continue
                    d = rng.randrange(0, 4)
                    cols, basis = _cycle_space(state, d - 1)
                    boundary = _random_combo(rng, field, cols, basis, 0.5)
                    targ = _random_targets(rng, state, forced, ())
                    seg = _linear_segment(state, t, t1, targ)
                    ev = EntryAbove(t1, new_id(), d, boundary)
            except ValidationError:
                seg = ev = None
                continue
            if seg is not None:
                break
        if seg is None:
            targ = _random_targets(rng, state, forced, ())
            seg = _linear_segment(state, t, t1, targ)
            ev = None
        items.append(seg)
        state.actions = {gid: p.value(t1) for gid, p in seg.actions.items()}
        if ev is not None:
            ev.apply(state)
            items.append(ev)
        t = t1
        last_ev = ev

    # settle: resolve whatever the last event left degenerate
    forced = _resolve_forced(rng, state, last_ev)
    targ = _random_targets(rng, state, forced, ())
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
