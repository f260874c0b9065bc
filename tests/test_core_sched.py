"""Tests for the Core dispatch engine using synthetic tasks."""

import math

import pytest

from repro.sched.base import CoreTask, ExecOutcome, ExecResult, TaskState
from repro.sched.cfs import CFSScheduler
from repro.sched.core import Core
from repro.sched.deadline import DeadlineCFSScheduler
from repro.sched.rr import RRScheduler
from repro.sim.clock import MSEC, SEC, USEC


class WorkTask(CoreTask):
    """A task with a finite pool of work; blocks when it runs out."""

    def __init__(self, name, work_ns, weight=1024):
        super().__init__(name, weight)
        self.work_ns = float(work_ns)
        self.done_ns = 0.0

    def estimate_run_ns(self, now_ns):
        return self.work_ns - self.done_ns

    def execute(self, now_ns, granted_ns):
        take = min(granted_ns, self.work_ns - self.done_ns)
        self.done_ns += take
        if self.work_ns - self.done_ns > 1e-9:
            return ExecResult(take, ExecOutcome.USED_ALL)
        return ExecResult(take, ExecOutcome.RAN_OUT)


class GreedyTask(CoreTask):
    """Never yields voluntarily (a misbehaving NF)."""

    def estimate_run_ns(self, now_ns):
        return math.inf

    def execute(self, now_ns, granted_ns):
        return ExecResult(granted_ns, ExecOutcome.USED_ALL)


def make_core(loop, sched=None, **kw):
    return Core(loop, sched or CFSScheduler(), ctx_switch_ns=0.0, **kw)


class TestBasicDispatch:
    def test_single_task_runs_to_completion(self, loop):
        core = make_core(loop)
        t = WorkTask("t", 5 * MSEC)
        core.add_task(t)
        core.wake(t)
        loop.run_until(SEC)
        assert t.done_ns == pytest.approx(5 * MSEC)
        assert t.state is TaskState.BLOCKED
        assert t.stats.voluntary_switches == 1

    def test_task_cannot_join_two_cores(self, loop):
        c1, c2 = make_core(loop), make_core(loop)
        t = WorkTask("t", MSEC)
        c1.add_task(t)
        with pytest.raises(ValueError):
            c2.add_task(t)

    def test_wake_blocked_only(self, loop):
        core = make_core(loop)
        t = WorkTask("t", 10 * MSEC)
        core.add_task(t)
        assert core.wake(t)
        assert not core.wake(t)  # already running/ready

    def test_two_tasks_both_complete(self, loop):
        core = make_core(loop)
        a = WorkTask("a", 10 * MSEC)
        b = WorkTask("b", 10 * MSEC)
        for t in (a, b):
            core.add_task(t)
            core.wake(t)
        loop.run_until(SEC)
        assert a.done_ns == pytest.approx(10 * MSEC)
        assert b.done_ns == pytest.approx(10 * MSEC)

    def test_work_conservation(self, loop):
        """Busy + idle + overhead accounts for the whole horizon."""
        core = Core(loop, CFSScheduler(), ctx_switch_ns=1000.0)
        tasks = [WorkTask(f"t{i}", 20 * MSEC) for i in range(3)]
        for t in tasks:
            core.add_task(t)
            core.wake(t)
        loop.run_until(200 * MSEC)
        core.finalize()
        total = (core.stats.busy_ns + core.stats.idle_ns
                 + core.stats.overhead_ns)
        assert total == pytest.approx(200 * MSEC, rel=1e-6)

    def test_spurious_wake_blocks_again(self, loop):
        core = make_core(loop)
        t = WorkTask("t", 0.0)  # no work at all
        core.add_task(t)
        core.wake(t)
        loop.run_until(MSEC)
        assert t.state is TaskState.BLOCKED
        assert t.stats.runtime_ns == 0.0


class TestFairness:
    def test_equal_weights_equal_runtime(self, loop):
        core = make_core(loop)
        a, b = GreedyTask("a"), GreedyTask("b")
        for t in (a, b):
            core.add_task(t)
            core.wake(t)
        loop.run_until(SEC)
        assert a.stats.runtime_ns == pytest.approx(
            b.stats.runtime_ns, rel=0.02)

    def test_cgroup_weights_split_cpu(self, loop):
        """vruntime scaling: a 3x-weight task gets ~3x the CPU — the exact
        mechanism NFVnice's Monitor exploits."""
        core = make_core(loop)
        light = GreedyTask("light", weight=512)
        heavy = GreedyTask("heavy", weight=1536)
        for t in (light, heavy):
            core.add_task(t)
            core.wake(t)
        loop.run_until(SEC)
        ratio = heavy.stats.runtime_ns / light.stats.runtime_ns
        assert ratio == pytest.approx(3.0, rel=0.1)

    def test_greedy_task_cannot_starve_others(self, loop):
        """The §2.1 malicious-NF property: a task that never yields still
        cannot take more than its fair share under CFS."""
        core = make_core(loop)
        greedy = GreedyTask("greedy")
        worker = GreedyTask("worker")
        for t in (greedy, worker):
            core.add_task(t)
            core.wake(t)
        loop.run_until(SEC)
        assert worker.stats.runtime_ns > 0.45 * SEC

    def test_rr_ignores_weights(self, loop):
        core = make_core(loop, RRScheduler(quantum_ns=MSEC))
        light = GreedyTask("light", weight=1)
        heavy = GreedyTask("heavy", weight=10000)
        for t in (light, heavy):
            core.add_task(t)
            core.wake(t)
        loop.run_until(SEC)
        assert light.stats.runtime_ns == pytest.approx(
            heavy.stats.runtime_ns, rel=0.02)


class TestContextSwitchAccounting:
    def test_voluntary_switch_on_block(self, loop):
        core = make_core(loop)
        a = WorkTask("a", MSEC)
        core.add_task(a)
        core.wake(a)
        loop.run_until(10 * MSEC)
        assert a.stats.voluntary_switches == 1
        assert a.stats.involuntary_switches == 0

    def test_involuntary_switch_under_contention(self, loop):
        core = make_core(loop)
        a, b = GreedyTask("a"), GreedyTask("b")
        for t in (a, b):
            core.add_task(t)
            core.wake(t)
        loop.run_until(100 * MSEC)
        assert a.stats.involuntary_switches > 0
        assert a.stats.voluntary_switches == 0

    def test_lone_task_no_involuntary_switches(self, loop):
        """With nobody else runnable the kernel re-picks the same task;
        no context switch is recorded."""
        core = make_core(loop)
        t = GreedyTask("t")
        core.add_task(t)
        core.wake(t)
        loop.run_until(SEC)
        assert t.stats.involuntary_switches == 0

    def test_switch_overhead_charged(self, loop):
        core = Core(loop, CFSScheduler(), ctx_switch_ns=2000.0)
        a, b = GreedyTask("a"), GreedyTask("b")
        for t in (a, b):
            core.add_task(t)
            core.wake(t)
        loop.run_until(100 * MSEC)
        assert core.stats.overhead_ns > 0
        assert core.stats.overhead_ns == pytest.approx(
            2000.0 * (core.stats.dispatches - 1), rel=0.2)


class TestSegmentCap:
    def test_segments_bounded(self, loop):
        core = make_core(loop, max_segment_ns=50 * USEC)
        t = GreedyTask("t")
        core.add_task(t)
        core.wake(t)
        loop.run_until(MSEC)
        # 1ms of run in <=50us segments: at least 20 events fired.
        assert t.stats.runtime_ns == pytest.approx(MSEC, rel=0.01)

    def test_one_ns_segments_still_progress(self, loop):
        core = make_core(loop, max_segment_ns=1.5)
        t = GreedyTask("t")
        core.add_task(t)
        core.wake(t)
        loop.run_until(20 * USEC)
        assert t.stats.runtime_ns == pytest.approx(20 * USEC)


class TestZeroSliceRejected:
    """A zero slice or segment would re-slice at one instant forever, so
    the constructors refuse it and name the field."""

    @pytest.mark.parametrize("value", [0, 0.4, -5, float("nan")])
    def test_core_max_segment(self, loop, value):
        with pytest.raises(ValueError, match="max_segment_ns"):
            make_core(loop, max_segment_ns=value)

    @pytest.mark.parametrize("value", [-1, float("nan")])
    def test_core_ctx_switch(self, loop, value):
        with pytest.raises(ValueError, match="ctx_switch_ns"):
            Core(loop, CFSScheduler(), ctx_switch_ns=value)

    @pytest.mark.parametrize("field,value", [
        ("sched_latency_ns", 0),
        ("sched_latency_ns", -MSEC),
        ("min_granularity_ns", 0),
        ("wakeup_granularity_ns", -1),
    ])
    def test_cfs_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            CFSScheduler(**{field: value})
        with pytest.raises(ValueError, match=field):
            DeadlineCFSScheduler(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("urgency_ns", -1),
        ("urgent_slice_ns", 0),
    ])
    def test_deadline_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            DeadlineCFSScheduler(**{field: value})

    def test_boundary_values_accepted(self, loop):
        CFSScheduler(min_granularity_ns=1, sched_latency_ns=1,
                     wakeup_granularity_ns=0)
        DeadlineCFSScheduler(urgency_ns=0, urgent_slice_ns=1)
        Core(loop, CFSScheduler(), ctx_switch_ns=0, max_segment_ns=1)


class TestInterrupt:
    def test_interrupt_voluntary_blocks_task(self, loop):
        core = make_core(loop)
        t = GreedyTask("t")
        core.add_task(t)
        core.wake(t)
        loop.run_until(MSEC)
        core.interrupt_current(voluntary=True)
        assert t.state is TaskState.BLOCKED
        assert t.stats.voluntary_switches == 1
        assert t.stats.runtime_ns == pytest.approx(MSEC, rel=0.05)

    def test_interrupt_involuntary_requeues(self, loop):
        core = make_core(loop)
        t = GreedyTask("t")
        core.add_task(t)
        core.wake(t)
        loop.run_until(MSEC)
        core.interrupt_current(voluntary=False)
        # Requeued and immediately re-dispatched (only runnable task).
        assert t.state is TaskState.RUNNING
        assert t.stats.involuntary_switches == 1

    def test_interrupt_idle_core_noop(self, loop):
        core = make_core(loop)
        core.interrupt_current(voluntary=True)  # must not raise

    def test_block_ready(self, loop):
        core = make_core(loop)
        a, b = GreedyTask("a"), GreedyTask("b")
        for t in (a, b):
            core.add_task(t)
            core.wake(t)
        # One is running, the other READY.
        ready = b if core.current is a else a
        assert core.block_ready(ready)
        assert ready.state is TaskState.BLOCKED
        assert not core.block_ready(ready)


class TestSchedulingDelay:
    def test_delay_measured_from_wake(self, loop):
        # BATCH disables wakeup preemption, so the waiter actually waits.
        from repro.sched.cfs import CFSBatchScheduler

        core = make_core(loop, CFSBatchScheduler())
        runner = GreedyTask("runner")
        core.add_task(runner)
        core.wake(runner)
        waiter = WorkTask("waiter", MSEC)
        core.add_task(waiter)
        loop.run_until(10 * MSEC)
        core.wake(waiter)
        loop.run_until(50 * MSEC)
        assert waiter.stats.sched_delay_count >= 1
        assert waiter.stats.avg_sched_delay_ns > 0
