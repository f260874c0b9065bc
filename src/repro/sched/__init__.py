"""Models of the Linux CPU schedulers the paper evaluates.

NFVnice deliberately does **not** replace the kernel scheduler — it tunes
whichever scheduler is in use through cgroup weights and voluntary yields.
Reproducing that claim requires faithful scheduler models to tune:

* :mod:`~repro.sched.cfs` — the Completely Fair Scheduler: per-task virtual
  runtime scaled by cgroup weight, a runqueue kept sorted by vruntime,
  ``sched_latency``-derived time slices, and wakeup preemption.
  ``SCHED_BATCH`` is the same engine with wakeup preemption disabled and a
  coarser quantum.
* :mod:`~repro.sched.rr` — ``SCHED_RR`` with a fixed quantum (the paper uses
  1 ms and 100 ms variants).
* :mod:`~repro.sched.edf` / :mod:`~repro.sched.deadline` — the SLO-aware
  family: earliest-deadline-first over head-of-ring packet deadlines, and
  a deadline-cognizant CFS variant whose cpu.shares are steered by the
  Monitor's :class:`~repro.core.monitor.SLOGovernor`.
* :mod:`~repro.sched.core` — a simulated CPU core: dispatches tasks picked
  by the policy, charges runtime and context-switch costs, and accounts
  voluntary/involuntary switches, scheduling delay and idle time.
* :mod:`~repro.sched.cgroups` — the cpu.shares control interface NFVnice
  writes through the cgroup virtual filesystem.
"""

from repro.sched.base import CoreTask, ExecOutcome, ExecResult, Scheduler, TaskState
from repro.sched.cfs import CFSBatchScheduler, CFSScheduler
from repro.sched.cgroups import CgroupController
from repro.sched.cooperative import CooperativeScheduler
from repro.sched.core import Core
from repro.sched.deadline import DeadlineCFSScheduler, project_slo_miss
from repro.sched.edf import EDFScheduler
from repro.sched.rr import RRScheduler

__all__ = [
    "CoreTask",
    "ExecOutcome",
    "ExecResult",
    "Scheduler",
    "TaskState",
    "CFSScheduler",
    "CFSBatchScheduler",
    "RRScheduler",
    "CooperativeScheduler",
    "EDFScheduler",
    "DeadlineCFSScheduler",
    "project_slo_miss",
    "Core",
    "CgroupController",
]


def make_scheduler(name: str) -> Scheduler:
    """Factory for the scheduler configurations used across the evaluation.

    Accepted names: ``NORMAL``, ``BATCH``, ``RR`` / ``RR_1MS``, ``RR_100MS``,
    ``COOP``, ``EDF``, ``DEADLINE`` (case-insensitive).
    """
    from repro.sim.clock import MSEC

    key = name.strip().upper()
    if key == "NORMAL":
        return CFSScheduler()
    if key == "BATCH":
        return CFSBatchScheduler()
    if key == "EDF":
        return EDFScheduler()
    if key in ("DEADLINE", "DEADLINE_CFS", "DL"):
        return DeadlineCFSScheduler()
    if key in ("RR", "RR_1MS", "RR(1MS)"):
        return RRScheduler(quantum_ns=MSEC)
    if key in ("RR_100MS", "RR(100MS)"):
        return RRScheduler(quantum_ns=100 * MSEC)
    if key in ("COOP", "COOPERATIVE", "LTHREAD"):
        return CooperativeScheduler()
    raise ValueError(f"unknown scheduler {name!r}")
