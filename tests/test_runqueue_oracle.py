"""Scheduler-runqueue-vs-reference-oracle equivalence battery.

The oracle below is the runqueue contract written as plainly as possible:
every ready task sits in a list that is re-sorted by ``(key, insertion
order)`` on every pick, where the key is the CFS vruntime (after the
sleeper floor on a wakeup) or the EDF deadline.  Any program of
``enqueue``/``dequeue``/``pick_next``/``charge`` must pick the same tasks
in the same order with the same keys on the real schedulers, and agree
on ``nr_ready`` and (for the CFS family) ``min_vruntime`` after every
step.  Campaign digests
staying bit-identical across runqueue changes reduces to exactly this
property.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sched.base import CoreTask
from repro.sched.cfs import CFSBatchScheduler, CFSScheduler
from repro.sched.deadline import DeadlineCFSScheduler
from repro.sched.edf import EDFScheduler

_N_TASKS = 6


class _Stub(CoreTask):
    """A task whose EDF deadline is set by the test (``None``: FIFO aging)."""

    def __init__(self, name):
        super().__init__(name)
        self.deadline = None

    def deadline_ns(self, now_ns, default_slo_ns):
        return self.deadline


class _Real:
    """Drives one real scheduler over ``_N_TASKS`` stub tasks."""

    def __init__(self, sched):
        self.sched = sched
        self.cfs = isinstance(sched, CFSScheduler)
        self.tasks = [_Stub(f"t{i}") for i in range(_N_TASKS)]
        self.now = 0

    def enqueue(self, i, key, wakeup):
        task = self.tasks[i]
        if self.cfs:
            task.vruntime = float(key)
        else:
            task.deadline = key
        self.sched.enqueue(task, self.now, wakeup)

    def dequeue(self, i):
        self.sched.dequeue(self.tasks[i], self.now)

    def pick(self):
        task = self.sched.pick_next(self.now)
        if task is None:
            return None, None
        key = task.vruntime if self.cfs else task.edf_deadline_ns
        return self.tasks.index(task), key

    def charge(self, i, delta):
        self.sched.charge(self.tasks[i], float(delta))

    def state(self):
        return self.sched.nr_ready, getattr(self.sched, "min_vruntime", None)


class _Oracle:
    """Reference runqueue: an unsorted list sorted on demand."""

    def __init__(self, sched):
        self.cfs = isinstance(sched, CFSScheduler)
        self.half_latency = (sched.sched_latency_ns / 2.0 if self.cfs
                             else None)
        self.default_slo_ns = sched.default_slo_ns if not self.cfs else None
        self.queue = []          # (key, order, task index)
        self.order = 0
        self.vruntime = [0.0] * _N_TASKS
        self.min_vruntime = 0.0 if self.cfs else None
        self.now = 0

    def enqueue(self, i, key, wakeup):
        if self.cfs:
            key = float(key)
            if wakeup:
                key = max(key, self.min_vruntime - self.half_latency)
            self.vruntime[i] = key
        elif key is None:
            key = self.now + self.default_slo_ns
        self.order += 1
        self.queue.append((key, self.order, i))

    def dequeue(self, i):
        self.queue = [e for e in self.queue if e[2] != i]

    def _advance(self, running_vruntime):
        candidate = running_vruntime
        if self.queue:
            candidate = min(candidate, min(self.queue)[0])
        self.min_vruntime = max(self.min_vruntime, candidate)

    def pick(self):
        if not self.queue:
            return None, None
        self.queue.sort()
        key, _, i = self.queue.pop(0)
        if self.cfs:
            self._advance(self.vruntime[i])
        return i, key

    def charge(self, i, delta):
        if self.cfs:
            self.vruntime[i] += float(delta)
            self._advance(self.vruntime[i])

    def state(self):
        return len(self.queue), self.min_vruntime


SCHEDULERS = [CFSScheduler, CFSBatchScheduler, DeadlineCFSScheduler,
              EDFScheduler]

# Few distinct keys, so equal-key ties (broken by insertion order) are
# the common case rather than the rare one.
_KEYS = st.one_of(st.sampled_from([0, 1, 2, 5, 3_000_000]),
                  st.integers(0, 10_000_000))

_OP = st.one_of(
    st.tuples(st.just("enqueue"), st.integers(0, _N_TASKS - 1),
              st.one_of(_KEYS, st.none()), st.booleans()),
    st.tuples(st.just("dequeue"), st.integers(0, _N_TASKS - 1)),
    st.tuples(st.just("pick")),
    # Charges past half a sched_latency (3 ms) let min_vruntime outrun a
    # sleeper's key, so wakeups hit the GENTLE_FAIR_SLEEPERS floor.
    st.tuples(st.just("charge"),
              st.one_of(st.sampled_from([1, 750_000, 8_000_000]),
                        st.integers(0, 20_000_000))),
    st.tuples(st.just("tick"), st.integers(0, 1_000_000)),
)


def _interpret(rq, program):
    """Run ``program`` on ``rq``; return the trace of picks and states.

    Tasks are only enqueued while neither queued nor running, and only
    the running task (the last one picked) is charged, as a core does.
    """
    queued = set()
    running = None
    trace = []
    for op in program:
        kind = op[0]
        if kind == "enqueue":
            _, i, key, wakeup = op
            if i in queued:
                continue
            if key is None and rq.cfs:
                key = 0
            if i == running:
                running = None
            rq.enqueue(i, key, wakeup)
            queued.add(i)
        elif kind == "dequeue":
            rq.dequeue(op[1])
            queued.discard(op[1])
        elif kind == "pick":
            picked = rq.pick()
            running = picked[0]
            queued.discard(running)
            trace.append(("pick", picked))
        elif kind == "charge":
            if running is not None:
                rq.charge(running, op[1])
        else:
            rq.now += op[1]
        trace.append(rq.state())
    while True:
        picked = rq.pick()
        trace.append(("drain", picked, rq.state()))
        if picked[0] is None:
            return trace


@settings(max_examples=300, deadline=None)
@given(sched_idx=st.integers(0, len(SCHEDULERS) - 1),
       program=st.lists(_OP, min_size=1, max_size=60))
# A sleeper 8 ms behind min_vruntime wakes onto the floor 3 ms behind it.
@example(sched_idx=0, program=[("enqueue", 0, 0, False), ("pick",),
                               ("charge", 8_000_000),
                               ("enqueue", 1, 0, True), ("pick",)])
def test_random_program_equivalence(sched_idx, program):
    make = SCHEDULERS[sched_idx]
    assert (_interpret(_Real(make()), program)
            == _interpret(_Oracle(make()), program))


@settings(max_examples=40, deadline=None)
@given(keys=st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=20))
def test_equal_keys_run_in_enqueue_order(keys):
    for make in SCHEDULERS:
        rq = _Real(make())
        order = list(range(len(keys)))
        rq.tasks = [_Stub(f"t{i}") for i in order]
        for i, key in enumerate(keys):
            rq.enqueue(i, key, False)
        picked = [rq.pick()[0] for _ in keys]
        assert picked == sorted(order, key=lambda i: (keys[i], i))


@pytest.mark.parametrize("make", SCHEDULERS)
def test_dequeue_of_stale_entry_raises_and_keeps_neighbour(make):
    rq = _Real(make())
    rq.enqueue(0, 5, False)
    stale = rq.tasks[0].sched_node
    rq.dequeue(0)
    rq.enqueue(1, 5, False)
    rq.tasks[0].sched_node = stale
    with pytest.raises(RuntimeError, match="t0"):
        rq.dequeue(0)
    assert rq.sched.nr_ready == 1
    assert rq.pick()[0] == 1


@pytest.mark.parametrize("make", SCHEDULERS)
def test_dequeue_of_entry_from_another_runqueue_raises(make):
    here, there = _Real(make()), _Real(make())
    here.enqueue(0, 7, False)
    there.enqueue(1, 3, False)
    here.tasks[1].sched_node = there.tasks[1].sched_node
    with pytest.raises(RuntimeError, match="t1"):
        here.dequeue(1)
    assert here.pick()[0] == 0
