"""EventLoop-vs-reference-oracle equivalence battery.

The oracle below is the firing-order contract written as plainly as
possible: a list kept sorted by ``(time, seq)``, eager cancellation, and
a periodic re-arm that takes its sequence number *before* the callback
runs.  Any program of ``call_at``/``schedule``/``call_every``/``cancel``
(including cancel after fire and scheduling/cancelling from inside
callbacks) must produce the same firing sequence on the real loop — same
tags, same instants, same tie-break order — and leave it in the same
observable state.  Campaign digests staying bit-identical across engine
changes reduces to exactly this property.

The random program interpreter mixes time scales (same-instant, sub-µs,
ms, s, past 2**53 ns) so lazy cancellation, in-place compaction and the
integer-time fast path are all exercised.
"""

from __future__ import annotations

from bisect import insort

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import EventLoop


class _OracleHandle:
    def __init__(self, oracle, callback, period):
        self.oracle, self.callback, self.period = oracle, callback, period
        self.live = True

    def cancel(self):
        if self.live:
            self.live = False
            self.oracle.queue = [e for e in self.oracle.queue if e[2] is not self]


class _Oracle:
    """Reference loop: a sorted list of ``(time, seq, handle)``."""

    def __init__(self):
        self.now = self.seq = self.pushes = self.pops = 0
        self.queue = []

    @property
    def pending(self):
        return len(self.queue)

    def _push(self, t, handle):
        self.seq += 1
        self.pushes += 1
        insort(self.queue, (max(t, self.now), self.seq, handle))

    def call_at(self, t, callback, period=0):
        handle = _OracleHandle(self, callback, period)
        self._push(t, handle)
        return handle

    def schedule(self, delay, callback):
        return self.call_at(self.now + delay, callback)

    def call_every(self, period, callback):
        return self.call_at(self.now + period, callback, period)

    def _step(self, t_end):
        if not self.queue or self.queue[0][0] > t_end:
            return False
        t, _, handle = self.queue.pop(0)
        self.now = t
        self.pops += 1
        if handle.period:
            self._push(t + handle.period, handle)  # seq taken before callback
        else:
            handle.live = False
        handle.callback()
        return True

    def run_until(self, t_end):
        while self._step(t_end):
            pass
        self.now = max(self.now, t_end)



# Round values recur across offsets and periods, so same-instant ties
# (a periodic re-arm vs. an event its callback schedules) are common.
_ROUND = st.sampled_from([0, 1, 10, 100, 1_000])

_OFFSETS = st.one_of(
    _ROUND,
    st.integers(0, 5_000),
    st.integers(0, (1 << 21) + 3),
    st.integers(0, (1 << 29) + 7),
    st.integers(0, 1 << 40),
    st.integers((1 << 53) - 4, (1 << 53) + 4),
)

_PERIODS = st.one_of(
    _ROUND.filter(bool),
    st.integers(1, 1_000),
    st.integers(1, 1 << 22),
    st.integers(1 << 27, 1 << 30),
)

# Ops runnable from inside a callback (no nested run_until — the
# loop forbids re-entrant draining just like asyncio does).
_NESTED_OP = st.one_of(
    st.tuples(st.just("at"), _OFFSETS),
    st.tuples(st.just("after"), _OFFSETS),
    st.tuples(st.just("every"), _PERIODS),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
)

_TOP_OP = st.one_of(
    st.tuples(st.just("at"), _OFFSETS, st.lists(_NESTED_OP, max_size=3)),
    st.tuples(st.just("after"), _OFFSETS, st.lists(_NESTED_OP, max_size=3)),
    st.tuples(st.just("every"), _PERIODS, st.lists(_NESTED_OP, max_size=2)),
    st.tuples(st.just("cancel"), st.integers(0, 63), st.just(())),
    st.tuples(st.just("run"), _OFFSETS, st.just(())),
)

#: A periodic handle auto-cancels after this many fires so run_until over
#: a huge horizon stays bounded.  Deterministic, hence loop-invariant.
_MAX_FIRES = 30

#: Past every event a program can schedule (offsets stay below 2**54 per
#: op), so a final ``run_until(_DRAIN)`` fires everything left.
_DRAIN = 1 << 64


def _interpret(loop, program):
    """Run ``program`` on ``loop``; return (trace, final state)."""
    handles = []
    trace = []
    fires = {}
    tag_counter = [0]

    def schedule(kind, amount, nested):
        tag = tag_counter[0]
        tag_counter[0] += 1
        periodic = kind == "every"

        def cb():
            trace.append((tag, loop.now))
            n = fires.get(tag, 0) + 1
            fires[tag] = n
            if periodic and n >= _MAX_FIRES:
                handle.cancel()
                return
            for op in nested:
                apply(op, ())

        if kind == "at":
            handle = loop.call_at(loop.now + amount, cb)
        elif kind == "after":
            handle = loop.schedule(amount, cb)
        else:
            handle = loop.call_every(amount, cb)
        handles.append(handle)

    def apply(op, nested_tail):
        kind, amount = op[0], op[1]
        nested = op[2] if len(op) > 2 else nested_tail
        if kind in ("at", "after", "every"):
            schedule(kind, amount, nested)
        elif kind == "cancel":
            if handles:
                handles[amount % len(handles)].cancel()
        elif kind == "run":
            loop.run_until(loop.now + amount)

    for op in program:
        apply(op, ())
    # Drain what's left so late/far events are compared too.
    loop.run_until(_DRAIN)
    state = (loop.now, loop.pending, loop.pushes, loop.pops)
    return trace, state


def _both(run):
    """``run(loop)`` on the real loop and the oracle; assert they agree."""
    out = run(EventLoop())
    assert out == run(_Oracle())
    return out


@settings(max_examples=80, deadline=None)
@given(program=st.lists(_TOP_OP, min_size=1, max_size=40))
def test_random_program_equivalence(program):
    _both(lambda loop: _interpret(loop, program))


@settings(max_examples=40, deadline=None)
@given(
    offsets=st.lists(_OFFSETS, min_size=1, max_size=30),
    horizon=_OFFSETS,
)
def test_one_shot_ordering_equivalence(offsets, horizon):
    """Pure call_at programs: identical (time, tie-break) firing order."""

    def run(loop):
        trace = []
        for i, off in enumerate(offsets):
            loop.call_at(off, (lambda v: lambda: trace.append((v, loop.now)))(i))
        loop.run_until(horizon)
        trace.append(("now", loop.now, loop.pending))
        loop.run_until(_DRAIN)
        return trace

    _both(run)


def test_far_future_event_interleaves_with_near_ones():
    """A far-future event must fire in exact order once the clock reaches
    it, even when nearer events are scheduled around it later."""

    def run(loop):
        trace = []
        far_t = (1 << 36) + 12_345
        loop.call_at(far_t, lambda: trace.append(("far", loop.now)))
        # March the clock most of the way there, then surround the far
        # event with near ones — same instant included.
        loop.run_until(far_t - 500)
        for d, tag in ((far_t - 100, "before"), (far_t, "same_a"),
                       (far_t, "same_b"), (far_t + 50, "after")):
            loop.call_at(d, (lambda v: lambda: trace.append((v, loop.now)))(tag))
        loop.run_until(far_t + 50)
        return trace

    out = _both(run)
    assert [t for t, _ in out] == ["before", "far", "same_a", "same_b", "after"]


def test_mid_callback_same_instant_scheduling_matches():
    """Events scheduled at ``now`` from a callback fire this instant, after
    everything already queued for it."""

    def run(loop):
        trace = []

        def first():
            trace.append("first")
            loop.call_at(loop.now, lambda: trace.append("nested"))
            loop.schedule(0, lambda: trace.append("nested2"))

        loop.call_at(1000, first)
        loop.call_at(1000, lambda: trace.append("second"))
        loop.run_until(1000)
        return trace

    assert _both(run) == ["first", "second", "nested", "nested2"]


def test_cancel_after_fire_is_noop_on_both():
    def run(loop):
        h = loop.schedule(10, lambda: None)
        live = loop.schedule(20, lambda: None)
        loop.run_until(15)
        h.cancel()                 # already fired: must not double-decrement
        pending = [loop.pending]
        live.cancel()
        return pending + [loop.pending]

    assert _both(run) == [1, 0]


def test_periodic_cancel_from_own_callback_matches():
    def run(loop):
        trace = []
        count = [0]

        def tick():
            count[0] += 1
            trace.append(loop.now)
            if count[0] == 5:
                handle.cancel()

        handle = loop.call_every(70_000, tick)
        loop.run_until(10**7)
        trace.append(loop.pending)
        return trace

    assert _both(run)[-1] == 0


def test_periodic_rearm_takes_seq_before_its_callback():
    """A re-armed periodic event fires before anything its own callback
    scheduled for the same next instant, across run_until calls too."""

    def run(loop):
        trace = []

        def tick():
            trace.append(("tick", loop.now))
            loop.schedule(100, lambda: trace.append(("echo", loop.now)))

        handle = loop.call_every(100, tick)
        loop.run_until(250)
        loop.run_until(400)
        handle.cancel()
        return trace

    assert _both(run) == [("tick", 100), ("tick", 200), ("echo", 200),
                          ("tick", 300), ("echo", 300), ("tick", 400),
                          ("echo", 400)]
