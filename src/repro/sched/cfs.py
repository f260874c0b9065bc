"""The Completely Fair Scheduler model (SCHED_NORMAL and SCHED_BATCH).

Faithful to the kernel mechanics the paper leans on (§2.2):

* every task carries a monotonically increasing **virtual runtime**; the
  runqueue is kept sorted by vruntime and the task with the lowest one
  runs next;
* vruntime accrues as ``wall_time * NICE_0_WEIGHT / task.weight`` — this is
  precisely how cgroup cpu.shares written by NFVnice's Monitor steer the
  kernel without any kernel change;
* the time slice is not fixed: a scheduling period of
  ``max(sched_latency, nr_running * min_granularity)`` is split between
  runnable tasks in proportion to weight;
* a waking task preempts the current one when its vruntime lags by more
  than the wakeup granularity (``SCHED_NORMAL`` only — ``SCHED_BATCH``
  disables wakeup preemption, which is why it context-switches orders of
  magnitude less, Table 2).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from repro.sched.base import CoreTask, Scheduler, rq_insert
from repro.sim.clock import MSEC, USEC

#: The weight of a nice-0 task; cgroup cpu.shares defaults to this.
NICE_0_WEIGHT = 1024


class CFSScheduler(Scheduler):
    """SCHED_NORMAL: fine-grained fairness with wakeup preemption."""

    name = "NORMAL"

    def __init__(
        self,
        sched_latency_ns: int = 6 * MSEC,
        min_granularity_ns: int = 750 * USEC,
        wakeup_granularity_ns: int = 1 * MSEC,
        wakeup_preemption: bool = True,
    ):
        if sched_latency_ns <= 0:
            raise ValueError("sched_latency_ns must be positive")
        if min_granularity_ns <= 0:
            raise ValueError("min_granularity_ns must be positive")
        if wakeup_granularity_ns < 0:
            raise ValueError("wakeup_granularity_ns must be non-negative")
        self.sched_latency_ns = int(sched_latency_ns)
        self.min_granularity_ns = int(min_granularity_ns)
        self.wakeup_granularity_ns = int(wakeup_granularity_ns)
        self.wakeup_preemption = wakeup_preemption
        #: Runqueue: ``(vruntime, seq, task)`` entries kept sorted, so the
        #: task to run next is ``_rq[0]`` and equal vruntimes run in
        #: enqueue order.
        self._rq: list = []
        self._seq = 0
        self._ready_weight = 0
        self.min_vruntime = 0.0

    # ------------------------------------------------------------------
    # Runqueue membership
    # ------------------------------------------------------------------
    def enqueue(self, task: CoreTask, now_ns: int, wakeup: bool) -> None:
        if task.sched_node is not None:
            raise RuntimeError(f"{task.name} already enqueued")
        if wakeup:
            # Sleeper fairness: a task waking from a long block is placed at
            # most half a latency period behind min_vruntime, so it gets a
            # modest boost without starving everyone else
            # (GENTLE_FAIR_SLEEPERS).
            floor = self.min_vruntime - self.sched_latency_ns / 2.0
            if task.vruntime < floor:
                task.vruntime = floor
        self._seq += 1
        entry = task.sched_node = (task.vruntime, self._seq, task)
        rq_insert(self._rq, entry)
        self._ready_weight += task.weight

    def dequeue(self, task: CoreTask, now_ns: int) -> None:
        entry = task.sched_node
        if entry is None:
            return
        q = self._rq
        i = bisect_left(q, entry)
        if i == len(q) or q[i] is not entry:
            raise RuntimeError(f"{task.name} is not in this runqueue")
        del q[i]
        task.sched_node = None
        self._ready_weight -= task.weight

    def pick_next(self, now_ns: int) -> Optional[CoreTask]:
        q = self._rq
        if not q:
            return None
        task = q.pop(0)[2]
        task.sched_node = None
        self._ready_weight -= task.weight
        self._advance_min_vruntime(task.vruntime)
        return task

    # ------------------------------------------------------------------
    # Time accounting
    # ------------------------------------------------------------------
    def time_slice(self, task: CoreTask, now_ns: int) -> float:
        """The kernel's ``sched_slice()``: weight share of the period."""
        nr_running = len(self._rq) + 1  # queued plus the task dispatching
        period = max(self.sched_latency_ns, nr_running * self.min_granularity_ns)
        total_weight = self._ready_weight + task.weight
        slice_ns = period * task.weight / total_weight
        return max(slice_ns, self.min_granularity_ns)

    def charge(self, task: CoreTask, delta_ns: float) -> None:
        task.vruntime += delta_ns * NICE_0_WEIGHT / task.weight
        self._advance_min_vruntime(task.vruntime)

    def _advance_min_vruntime(self, running_vruntime: float) -> None:
        candidate = running_vruntime
        q = self._rq
        if q and q[0][0] < candidate:
            candidate = q[0][0]
        if candidate > self.min_vruntime:
            self.min_vruntime = candidate

    def on_weight_change(self, task: CoreTask, old: int, new: int) -> None:
        """Keep the aggregate ready weight in sync with cgroup writes
        that land while the task is enqueued."""
        if task.sched_node is not None:
            self._ready_weight += new - old

    # ------------------------------------------------------------------
    # Wakeup preemption
    # ------------------------------------------------------------------
    def preempts_on_wake(self, woken: CoreTask, current: CoreTask,
                         current_ran_ns: float) -> bool:
        if not self.wakeup_preemption:
            return False
        # The runner's vruntime is charged lazily at segment end; project it.
        projected = current.vruntime + current_ran_ns * NICE_0_WEIGHT / current.weight
        # wakeup_granularity is wall time; convert to the woken task's
        # virtual time, as the kernel's wakeup_gran() does.
        gran_virtual = self.wakeup_granularity_ns * NICE_0_WEIGHT / woken.weight
        return projected - woken.vruntime > gran_virtual

    @property
    def nr_ready(self) -> int:
        return len(self._rq)


class CFSBatchScheduler(CFSScheduler):
    """SCHED_BATCH: CFS fairness with wakeup preemption off and a coarser
    quantum — fewer timer interrupts, longer runs, far fewer involuntary
    context switches (paper §2.2, Tables 1-2)."""

    name = "BATCH"

    def __init__(
        self,
        sched_latency_ns: int = 6 * MSEC,
        min_granularity_ns: int = 1500 * USEC,
    ):
        super().__init__(
            sched_latency_ns=sched_latency_ns,
            min_granularity_ns=min_granularity_ns,
            wakeup_granularity_ns=0,
            wakeup_preemption=False,
        )
