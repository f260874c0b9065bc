"""A simulated CPU core.

The core glues a scheduling policy to the event loop:

* ``wake(task)`` — the NF Manager's Wakeup thread posts the semaphore of a
  blocked NF (paper §3.2 "Activating NFs"); the task enters the runqueue
  and may preempt the current task per policy.
* dispatch — the policy picks a task and grants it a time slice; the core
  plans a *run segment* up to ``min(remaining slice, task's own estimate of
  when it will block)`` and schedules its end as an event.  At segment end
  the task's ``execute`` performs the work (mutating queues); if it still
  has work and budget, a new segment continues the same dispatch, which is
  how newly arrived packets are absorbed without event invalidation.
* ``interrupt_current`` — wakeup preemption or the NFVnice relinquish flag
  cuts the running segment short; the partial work completed so far is
  executed and charged.

Context-switch classification matches ``pidstat``: a task that blocks of
its own accord (out of packets, Tx ring full, I/O buffers full, relinquish
flag) takes a *voluntary* switch; a task that exhausts its slice while
others wait, or is preempted by a wakeup, takes a *non-voluntary* switch.
Each actual task-to-task switch also burns a configurable overhead
(direct cost plus cache disturbance) during which no task work happens —
the overhead CFS NORMAL pays 65 000 times a second in Table 2.

Wall-time accounting is **exact in integer nanoseconds**: every instant
of a core's life belongs to exactly one of ``busy_ns`` / ``overhead_ns``
/ ``idle_ns``, partitioned at event boundaries (which are integers by
construction — ``EventLoop.call_at`` rounds up).  The invariant
``busy_ns + overhead_ns + idle_ns == now - epoch`` holds exactly and is
enforced by the runtime sanitizer (:mod:`repro.check.sanitizer`).  A
*spurious wake* — a dispatch of a task whose ``estimate_run_ns`` is 0,
so it blocks again without consuming any simulated time — charges
nothing: no wall time elapsed, so neither overhead nor busy time may
accrue (and the previously running task stays "last on CPU", so no
switch cost is imputed to a switch that never progressed).  Task-level
``runtime_ns`` remains fractional: per-packet cycle costs convert to
non-integer nanoseconds and feed vruntime, where exactness in the cycle
domain matters more than alignment to event boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.sched.base import (
    BLOCKED,
    FLAG_YIELD,
    RAN_OUT,
    READY,
    RUNNING,
    USED_ALL,
    CoreTask,
    ExecOutcome,
    Scheduler,
)
from repro.sim.engine import EventHandle, EventLoop

#: Below this many nanoseconds of remaining slice we treat the budget as
#: exhausted instead of scheduling sub-nanosecond segments.
_MIN_BUDGET_NS = 1


@dataclass
class CoreStats:
    """Aggregate core-level accounting (exact integer nanoseconds)."""

    busy_ns: int = 0
    idle_ns: int = 0
    overhead_ns: int = 0
    dispatches: int = 0

    def utilization(self, horizon_ns: float) -> float:
        """Fraction of the horizon spent doing task work or switching."""
        if horizon_ns <= 0:
            return 0.0
        return (self.busy_ns + self.overhead_ns) / horizon_ns


class Core:
    """One CPU core running :class:`~repro.sched.base.CoreTask` instances."""

    def __init__(
        self,
        loop: EventLoop,
        scheduler: Scheduler,
        core_id: int = 0,
        ctx_switch_ns: float = 1_500.0,
        max_segment_ns: float = float("inf"),
        socket: int = 0,
    ):
        self.loop = loop
        self.scheduler = scheduler
        self.core_id = core_id
        #: NUMA socket this core belongs to.
        self.socket = int(socket)
        if not ctx_switch_ns >= 0:
            raise ValueError("ctx_switch_ns must be non-negative")
        if max_segment_ns != float("inf") and not max_segment_ns >= 1:
            # A zero-length segment would re-slice at the same instant
            # forever.
            raise ValueError("max_segment_ns must be inf or at least 1 ns")
        #: Context-switch cost in whole nanoseconds: overhead delays the
        #: first run segment, so it must land on an event-time boundary.
        self.ctx_switch_ns = int(ctx_switch_ns)
        #: Upper bound on one uninterrupted run segment.  The platform sets
        #: this to the Tx thread poll period so an NF's output is produced
        #: in sub-ring-size chunks interleaved with the manager's ferrying,
        #: as on real hardware, instead of one burst at segment end.
        #: ``inf`` (the default) means unbounded.
        self.max_segment_ns = (
            max_segment_ns if max_segment_ns == float("inf")
            else int(max_segment_ns)
        )
        self.tasks: List[CoreTask] = []
        self.stats = CoreStats()
        #: Optional :class:`repro.obs.observer.Observer`s, per event: ``obs``
        #: gets dispatches (bus or causality tracer), ``bus_obs`` wakes and
        #: switch-outs (bus only).  ``None`` costs one branch per event.
        self.obs: Any = None
        self.bus_obs: Any = None

        #: A failed core dispatches nothing and refuses wakeups until
        #: :meth:`repair` (fault injection: the paper's schedulers assume
        #: cores never vanish; the chaos layer makes them vanish).
        self.failed = False

        self.current: Optional[CoreTask] = None
        self._last_task: Optional[CoreTask] = None
        self._segment_start: int = 0
        self._segment_plan: float = 0.0
        self._budget_left: float = 0.0
        self._charged_this_run: float = 0.0
        self._run_end: Optional[EventHandle] = None
        #: When the current dispatch started (wall partition anchor) and
        #: how much of it is context-switch overhead still unaccounted.
        self._dispatch_start: int = 0
        self._overhead_pending: int = 0
        #: First instant this core existed — accounting covers [epoch, now].
        self.epoch_ns: int = loop.now
        self._idle_since: Optional[int] = loop.now  # a core starts idle

    # ------------------------------------------------------------------
    # Task membership and wakeups
    # ------------------------------------------------------------------
    def add_task(self, task: CoreTask) -> None:
        """Register a task; it starts BLOCKED until first woken."""
        if task.core is not None:
            raise ValueError(f"{task.name} already placed on core {task.core.core_id}")
        task.core = self
        self.tasks.append(task)

    def wake(self, task: CoreTask) -> bool:
        """Make a BLOCKED task runnable (semaphore post).  No-op otherwise."""
        if self.failed or task.state is not BLOCKED:
            return False
        now = self.loop.now
        task.state = READY
        task.last_ready_ns = now
        task.stats.wakeups += 1
        if self.bus_obs is not None:
            self.bus_obs.on_wake(self, task, now)
        self.scheduler.enqueue(task, now, wakeup=True)
        if self.current is None:
            self._dispatch()
        elif self.scheduler.preempts_on_wake(
            task, self.current, self._elapsed_in_run(now)
        ):
            self.interrupt_current(voluntary=False)
        return True

    def block_ready(self, task: CoreTask) -> bool:
        """Pull a READY (queued, not running) task back to BLOCKED.

        Used by backpressure to keep a throttled NF off the CPU until its
        downstream drains.  Returns False unless the task was READY.
        """
        if task.state is not READY:
            return False
        self.scheduler.dequeue(task, self.loop.now)
        task.state = BLOCKED
        return True

    # ------------------------------------------------------------------
    # Fault teardown (crash / core failure)
    # ------------------------------------------------------------------
    def deschedule(self, task: CoreTask) -> bool:
        """Forcibly pull ``task`` off the CPU / out of the runqueue.

        Unlike :meth:`interrupt_current`, no partial work is executed:
        this models a SIGKILL mid-quantum — cycles already burned stay
        charged (they were consumed at segment granularity), but the
        in-flight batch never completes.  The task remains a member of
        the core so a recovery policy can revive it with :meth:`wake`.
        Returns True if the task was RUNNING or READY.
        """
        if self.current is task:
            if self._run_end is not None:
                self._run_end.cancel()
                self._run_end = None
            self._close_run_span(self.loop.now)
            self.current = None
            task.state = BLOCKED
            task.stats.involuntary_switches += 1
            if self.bus_obs is not None:
                self.bus_obs.on_switch_out(self, task, "killed",
                                           self.loop.now)
            self._dispatch()
            return True
        if task.state is READY:
            self.scheduler.dequeue(task, self.loop.now)
            task.state = BLOCKED
            return True
        return False

    def fail(self) -> None:
        """Take the whole core offline: every task is descheduled mid-
        quantum and no dispatch or wakeup succeeds until :meth:`repair`."""
        if self.failed:
            return
        self.failed = True           # blocks re-dispatch during teardown
        for task in self.tasks:
            self.deschedule(task)

    def repair(self) -> None:
        """Bring a failed core back; blocked tasks are picked up by the
        Wakeup subsystem's next scan (or an explicit notify)."""
        self.failed = False

    # ------------------------------------------------------------------
    # Interrupting the running task
    # ------------------------------------------------------------------
    def interrupt_current(self, voluntary: bool) -> None:
        """End the current run segment now.

        ``voluntary=True`` models the relinquish flag (the NF yields at the
        next batch boundary and blocks on its semaphore); ``voluntary=False``
        models wakeup preemption (the task returns to the runqueue).
        """
        task = self.current
        if task is None:
            return
        now = self.loop.now
        if self._run_end is not None:
            self._run_end.cancel()
            self._run_end = None
        # Comparisons in place of min(max(0.0, ...), plan): they return
        # the same operand on ties (int vs float matters downstream).
        elapsed: float = now - self._segment_start
        if not elapsed > 0.0:
            elapsed = 0.0
        if self._segment_plan < elapsed:
            elapsed = self._segment_plan
        outcome = FLAG_YIELD if voluntary else USED_ALL
        if elapsed > 0:
            result = task.execute(now, elapsed)
            self._charge(task, min(result.used_ns, elapsed))
            self._budget_left -= elapsed
            if result.outcome is not USED_ALL:
                # It was about to block anyway; honor the task's own reason.
                outcome = result.outcome
        self._switch_out(outcome)

    # ------------------------------------------------------------------
    # Dispatch machinery
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        if self.failed:
            if self._idle_since is None:
                self._idle_since = self.loop.now
            return
        now = self.loop.now
        task = self.scheduler.pick_next(now)
        if task is None:
            if self._idle_since is None:
                self._idle_since = now
            return
        if self._idle_since is not None:
            self.stats.idle_ns += now - self._idle_since
            self._idle_since = None

        task.state = RUNNING
        task.stats.sched_delay_ns += now - task.last_ready_ns
        task.stats.sched_delay_count += 1
        if self.obs is not None:
            self.obs.on_dispatch(self, task, now)

        self.current = task
        self._charged_this_run = 0.0
        self._budget_left = self.scheduler.time_slice(task, now)
        self.stats.dispatches += 1
        self._dispatch_start = now

        estimate = task.estimate_run_ns(now)
        if estimate <= 0:
            # Spurious wake: the task blocks again without performing any
            # work and without consuming any simulated time, so no
            # context-switch overhead may be charged (charging it with
            # zero elapsed wall time would overshoot the horizon) and the
            # previous task remains "last on CPU".
            self._overhead_pending = 0
            self._switch_out(RAN_OUT)
            return

        overhead = 0
        if self._last_task is not None and self._last_task is not task:
            overhead = self.ctx_switch_ns
        self._last_task = task
        self._overhead_pending = overhead
        self._begin_segment(now + overhead, estimate)

    def _begin_segment(self, start_ns: int, estimate: Optional[float] = None) -> None:
        task = self.current
        assert task is not None
        if estimate is None:
            estimate = task.estimate_run_ns(self.loop.now)
            if estimate <= 0:
                # Went out of work mid-dispatch (e.g. output space vanished
                # between segments): block again.
                self._switch_out(RAN_OUT)
                return
        # min() without the call; ties keep the earlier operand, as min()
        # does — int vs float matters to call_at's integer fast path.
        plan = estimate
        if self._budget_left < plan:
            plan = self._budget_left
        if self.max_segment_ns < plan:
            plan = self.max_segment_ns
        self._segment_start = start_ns
        self._segment_plan = plan
        self._run_end = self.loop.call_at(start_ns + plan, self._on_segment_end)

    def _on_segment_end(self) -> None:
        self._run_end = None
        task = self.current
        assert task is not None
        now = self.loop.now
        work = self._segment_plan
        result = task.execute(now, work)
        # _charge inlined (one call per segment on the hottest event).
        used = result.used_ns
        if work < used:
            used = work
        if used > 0:
            task.stats.runtime_ns += used
            self.scheduler.charge(task, used)
            self._charged_this_run += used
        self._budget_left -= work

        if result.outcome is not USED_ALL:
            self._switch_out(result.outcome)
            return
        if self._budget_left >= _MIN_BUDGET_NS:
            self._begin_segment(now)
            return
        if self.scheduler.nr_ready == 0:
            # Nobody else wants the CPU: the kernel re-picks the same task
            # with a fresh slice and no context switch occurs.
            self._budget_left = self.scheduler.time_slice(task, now)
            self._begin_segment(now)
            return
        self._switch_out(USED_ALL)

    def _switch_out(self, outcome: ExecOutcome) -> None:
        task = self.current
        assert task is not None
        now = self.loop.now
        self._close_run_span(now)
        self.current = None
        if self.bus_obs is not None:
            self.bus_obs.on_switch_out(self, task, outcome, now)
        if outcome is USED_ALL:
            task.stats.involuntary_switches += 1
            task.state = READY
            task.last_ready_ns = now
            self.scheduler.enqueue(task, now, wakeup=False)
        else:
            task.stats.voluntary_switches += 1
            task.state = BLOCKED
        self._dispatch()

    # ------------------------------------------------------------------
    # Accounting helpers
    # ------------------------------------------------------------------
    def _close_run_span(self, now: int) -> None:
        """Account the wall-time span of the current dispatch.

        The span ``[_dispatch_start, now]`` is split exactly between
        ``overhead_ns`` (up to the pending context-switch cost — clamped,
        so a preemption *during* the switch window never over-charges) and
        ``busy_ns`` (the rest).  Idempotent: the anchor advances to ``now``
        so closing twice charges nothing extra.
        """
        span = now - self._dispatch_start
        if span <= 0:
            return
        oh = span if span < self._overhead_pending else self._overhead_pending
        self.stats.overhead_ns += oh
        self.stats.busy_ns += span - oh
        self._overhead_pending -= oh
        self._dispatch_start = now

    def _charge(self, task: CoreTask, used_ns: float) -> None:
        # Core-level busy_ns is charged by _close_run_span from integer
        # event-time spans; here only the task-level (fractional) runtime
        # and the policy's vruntime accounting accrue.
        if used_ns <= 0:
            return
        task.stats.runtime_ns += used_ns
        self.scheduler.charge(task, used_ns)
        self._charged_this_run += used_ns

    def _elapsed_in_run(self, now: int) -> float:
        segment_elapsed = min(
            max(0.0, now - self._segment_start), self._segment_plan
        )
        return self._charged_this_run + segment_elapsed

    def finalize(self) -> None:
        """Close the accounting partition at the end of a run (horizon).

        Any in-flight run segment's wall time up to *now* is charged
        (its end event lies beyond the horizon and never fires); any open
        idle stretch is closed.  After this,
        ``busy_ns + overhead_ns + idle_ns == now - epoch_ns`` exactly.
        """
        if self.current is not None:
            self._close_run_span(self.loop.now)
        if self._idle_since is not None:
            self.stats.idle_ns += self.loop.now - self._idle_since
            self._idle_since = self.loop.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cur = self.current.name if self.current else "idle"
        return (
            f"Core({self.core_id}, {self.scheduler.name}, "
            f"running={cur}, tasks={len(self.tasks)})"
        )
