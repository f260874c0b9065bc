"""Deadline-cognizant CFS and the Monitor's SLO-miss projection.

Two halves of one control loop:

* :class:`DeadlineCFSScheduler` — the *policy* half.  Plain CFS mechanics
  (weighted vruntime, sorted runqueue, kernel time slices) so every
  fairness property of :class:`~repro.sched.cfs.CFSScheduler` still
  holds, plus deadline cognizance at the two points a policy can act
  without touching vruntime: a waking task whose head-of-ring deadline is
  earlier than the current task's preempts immediately, and a task
  dispatched with little slack left gets a fuller slice so it drains its
  backlog instead of ping-ponging.  Crucially it never *lowers* any
  vruntime — per-task vruntime stays monotone, the invariant the property
  suite pins.
* :func:`project_slo_miss` — the *mechanism* half used by
  :class:`~repro.core.monitor.SLOGovernor`.  A pure predicate over a PR 6
  percentile snapshot and ring occupancy: it projects a miss either when
  p99 already exceeds the SLO, or when p99 is inside the headroom band
  *and* ring occupancy says the backlog is still growing.  A p99 exactly
  equal to the SLO is compliant — the inequality is strict on purpose,
  and tested at that boundary.

The cpu.shares reweighting and chain-aware core reallocation themselves
live in the Monitor (:class:`~repro.core.monitor.SLOGovernor`), which
multiplies NFVnice's priority factor per chain and migrates the
bottleneck NF of a persistently missing chain to a spare core.
"""

from __future__ import annotations

from repro.sched.base import CoreTask
from repro.sched.cfs import CFSScheduler
from repro.sched.edf import task_deadline
from repro.sim.clock import MSEC, USEC


def project_slo_miss(p99_us: float, slo_us: float, occupancy: float,
                     occupancy_threshold: float = 0.5,
                     headroom: float = 0.8) -> bool:
    """Project whether a chain is missing (or about to miss) its SLO.

    ``p99_us`` is the chain's observed p99 sojourn, ``slo_us`` its budget,
    ``occupancy`` the worst Rx-ring fill fraction (0..1) along the chain.

    * ``p99 > slo`` — already missing.  Strict: a p99 **exactly at** the
      SLO is compliant.
    * ``p99 > headroom * slo`` with ``occupancy >= occupancy_threshold``
      — inside the danger band while queues are deep: the backlog will
      push the tail over the budget, so act before the miss materialises.
    """
    if slo_us <= 0:
        return False
    if p99_us > slo_us:
        return True
    return occupancy >= occupancy_threshold and p99_us > headroom * slo_us


class DeadlineCFSScheduler(CFSScheduler):
    """CFS with deadline-driven preemption and urgency-sized slices."""

    name = "DEADLINE"

    def __init__(
        self,
        sched_latency_ns: int = 6 * MSEC,
        min_granularity_ns: int = 750 * USEC,
        wakeup_granularity_ns: int = 1 * MSEC,
        default_slo_ns: int = 10 * MSEC,
        urgency_ns: int = 500 * USEC,
        urgent_slice_ns: int = 2 * MSEC,
    ):
        super().__init__(
            sched_latency_ns=sched_latency_ns,
            min_granularity_ns=min_granularity_ns,
            wakeup_granularity_ns=wakeup_granularity_ns,
            wakeup_preemption=True,
        )
        if default_slo_ns <= 0:
            raise ValueError("default_slo_ns must be positive")
        if urgency_ns < 0:
            raise ValueError("urgency_ns must be non-negative")
        if urgent_slice_ns <= 0:
            raise ValueError("urgent_slice_ns must be positive")
        self.default_slo_ns = int(default_slo_ns)
        #: Remaining slack at or below which a task counts as urgent.
        self.urgency_ns = int(urgency_ns)
        #: Slice floor granted to an urgent task (never *shrinks* the
        #: fair slice — urgency can only extend it).
        self.urgent_slice_ns = int(urgent_slice_ns)

    # ------------------------------------------------------------------
    def enqueue(self, task: CoreTask, now_ns: int, wakeup: bool) -> None:
        # Stamp the head-of-ring deadline alongside the CFS enqueue so
        # preempts_on_wake (which has no ``now``) can compare absolute
        # deadlines.  Same inheritance rule as EDF: origin_ns + flow SLO.
        task.edf_deadline_ns = task_deadline(task, now_ns,
                                             self.default_slo_ns)
        super().enqueue(task, now_ns, wakeup)

    def time_slice(self, task: CoreTask, now_ns: int) -> float:
        slice_ns = super().time_slice(task, now_ns)
        deadline = task_deadline(task, now_ns, self.default_slo_ns)
        if deadline - now_ns <= self.urgency_ns:
            urgent = self.urgent_slice_ns
            if urgent > slice_ns:
                return urgent
        return slice_ns

    def preempts_on_wake(self, woken: CoreTask, current: CoreTask,
                         current_ran_ns: float) -> bool:
        woken_deadline = getattr(woken, "edf_deadline_ns", None)
        current_deadline = getattr(current, "edf_deadline_ns", None)
        if (woken_deadline is not None and current_deadline is not None
                and woken_deadline < current_deadline):
            # The current task's stamp is from its last enqueue; running
            # only drains its ring, pushing the true deadline later, so
            # the stale stamp under-preempts — never thrashes.
            return True
        return super().preempts_on_wake(woken, current, current_ran_ns)
