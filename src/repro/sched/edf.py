"""Earliest-deadline-first scheduling over per-flow SLO budgets.

NFVnice's cgroup-weight tuning optimises *rate* fairness; an SLO says
something about *latency*: every packet must clear its chain within a
per-flow budget (*Scheduling Network Function Chains Under Sub-Millisecond
Latency SLOs*).  The EDF policy orders NFs by the earliest projected
completion deadline of the packet at the head of their Rx ring:

* a packet's deadline is ``origin_ns + slo_ns`` — ``origin_ns`` is stamped
  once at NIC arrival and carried through every hop, so a downstream NF
  **inherits** the end-to-end deadline of the traffic it is holding
  (deadline inheritance across the chain);
* the per-flow budget comes from the SLO class declared on the
  ``Scenario`` (``Flow.slo_ns``); flows without a declared class fall
  back to ``default_slo_ns``;
* a task with an empty ring (or one that is not an NF at all) is queued
  at ``now + default_slo_ns`` — FIFO aging, which also gives the
  no-starvation argument: deadlines are fixed at enqueue time while every
  later arrival's origin (hence deadline) only grows, so a waiting task's
  key eventually becomes the minimum.

The policy asks tasks for their deadline through an *optional* duck-typed
hook — ``task.deadline_ns(now_ns, default_slo_ns)`` returning an absolute
deadline or ``None`` — so plain :class:`~repro.sched.base.CoreTask`
subclasses (housekeeping threads, test tasks) schedule under EDF without
changes.

Unlike CFS there is no virtual-time fairness here: ``vruntime`` is kept
as a monotone mirror of wall runtime purely so traces and invariants read
consistently, and the policy intentionally exposes no ``min_vruntime``
(the sanitizer skips its CFS-specific monotonicity check).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from repro.sched.base import CoreTask, Scheduler, rq_insert
from repro.sim.clock import MSEC


def task_deadline(task: CoreTask, now_ns: int, default_slo_ns: int) -> int:
    """Absolute deadline used as the runqueue key for ``task``.

    Tasks exposing ``deadline_ns(now_ns, default_slo_ns)`` (NF processes)
    are asked; everything else — and an NF whose hook returns ``None``
    because its ring is empty — ages FIFO at ``now + default_slo_ns``.
    """
    hook = getattr(task, "deadline_ns", None)
    if hook is not None:
        deadline = hook(now_ns, default_slo_ns)
        if deadline is not None:
            return int(deadline)
    return now_ns + default_slo_ns


class EDFScheduler(Scheduler):
    """SCHED_DEADLINE-flavoured EDF over head-of-ring packet deadlines."""

    name = "EDF"

    def __init__(
        self,
        default_slo_ns: int = 10 * MSEC,
        quantum_ns: int = 1 * MSEC,
        wakeup_preemption: bool = True,
    ):
        if default_slo_ns <= 0:
            raise ValueError("default_slo_ns must be positive")
        if quantum_ns <= 0:
            raise ValueError("quantum_ns must be positive")
        self.default_slo_ns = int(default_slo_ns)
        self.quantum_ns = int(quantum_ns)
        self.wakeup_preemption = wakeup_preemption
        #: Runqueue: ``(deadline, seq, task)`` entries kept sorted, so the
        #: earliest deadline is ``_rq[0]`` and ties run in enqueue order.
        self._rq: list = []
        self._seq = 0

    # ------------------------------------------------------------------
    # Runqueue membership
    # ------------------------------------------------------------------
    def enqueue(self, task: CoreTask, now_ns: int, wakeup: bool) -> None:
        if task.sched_node is not None:
            raise RuntimeError(f"{task.name} already enqueued")
        # Recomputed on every enqueue — including the requeue after an
        # exhausted quantum — so the key tracks the ring head as it drains.
        deadline = task_deadline(task, now_ns, self.default_slo_ns)
        task.edf_deadline_ns = deadline
        self._seq += 1
        entry = task.sched_node = (deadline, self._seq, task)
        rq_insert(self._rq, entry)

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

    def pick_next(self, now_ns: int) -> Optional[CoreTask]:
        q = self._rq
        if not q:
            return None
        task = q.pop(0)[2]
        task.sched_node = None
        return task

    # ------------------------------------------------------------------
    # Time accounting
    # ------------------------------------------------------------------
    def time_slice(self, task: CoreTask, now_ns: int) -> float:
        return self.quantum_ns

    def charge(self, task: CoreTask, delta_ns: float) -> None:
        # No virtual-time fairness under EDF; vruntime mirrors wall
        # runtime so per-task monotonicity invariants hold unchanged.
        task.vruntime += delta_ns

    # ------------------------------------------------------------------
    # Wakeup preemption
    # ------------------------------------------------------------------
    def preempts_on_wake(self, woken: CoreTask, current: CoreTask,
                         current_ran_ns: float) -> bool:
        if not self.wakeup_preemption:
            return False
        woken_deadline = getattr(woken, "edf_deadline_ns", None)
        current_deadline = getattr(current, "edf_deadline_ns", None)
        if woken_deadline is None or current_deadline is None:
            return False
        # The current task's key was fixed when it was last enqueued;
        # running can only push its true deadline later (it drains its
        # ring), so comparing against the stale key errs on the side of
        # not preempting — thrash-free by construction.
        return woken_deadline < current_deadline

    @property
    def nr_ready(self) -> int:
        return len(self._rq)
