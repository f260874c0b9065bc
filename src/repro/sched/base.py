"""Scheduler and task interfaces shared by all policies.

A :class:`CoreTask` is anything a :class:`~repro.sched.core.Core` can run —
in this reproduction, NF processes.  The core asks a task two things:

* ``estimate_run_ns(now)`` — how long it would run before *voluntarily*
  blocking, given its current input queue.  ``inf`` models a misbehaving NF
  that never yields (paper §2.1).
* ``execute(now, granted_ns)`` — perform up to ``granted_ns`` of work,
  mutate queues, and report why the run ended.

Estimates must be **pessimistic-exact**: work available can only grow while
a task runs (arrivals enqueue, nothing else dequeues), and cost sampling is
buffered so the cycles charged at ``execute`` equal the cycles foreseen at
``estimate`` for the same packets.  The core relies on this to plan run-end
events without rollback.
"""

from __future__ import annotations

import enum
from bisect import insort
from dataclasses import dataclass
from typing import Optional


class TaskState(enum.Enum):
    """Lifecycle of a schedulable task."""

    BLOCKED = "blocked"   # waiting on the manager's semaphore / Tx space / I/O
    READY = "ready"       # in a runqueue
    RUNNING = "running"   # current on some core


class ExecOutcome(enum.Enum):
    """Why a granted run ended (drives context-switch classification)."""

    USED_ALL = "used_all"        # consumed the grant, still has work (involuntary)
    RAN_OUT = "ran_out"          # input queue empty -> blocks on semaphore
    TX_BLOCKED = "tx_blocked"    # output ring full -> local backpressure block
    IO_BLOCKED = "io_blocked"    # both I/O double-buffers full -> blocks
    FLAG_YIELD = "flag_yield"    # NF Manager's relinquish flag -> yields


# The members, bound once as module globals for the event path to import.
# On CPython 3.11 ``TaskState.BLOCKED`` inside a function is a Python-level
# metaclass attribute lookup on every execution (~150 ns, unspecialisable);
# a global load is ~20 ns.  ``repro check`` (SIM502) keeps member loads out
# of function bodies in the simulation layers.
BLOCKED = TaskState.BLOCKED
READY = TaskState.READY
RUNNING = TaskState.RUNNING
USED_ALL = ExecOutcome.USED_ALL
RAN_OUT = ExecOutcome.RAN_OUT
TX_BLOCKED = ExecOutcome.TX_BLOCKED
IO_BLOCKED = ExecOutcome.IO_BLOCKED
FLAG_YIELD = ExecOutcome.FLAG_YIELD


class ExecResult:
    """Result of :meth:`CoreTask.execute`.

    A plain ``__slots__`` class: one is built per run segment, and a
    dataclass ``__init__`` costs more (``slots=True`` needs Python 3.10).
    """

    __slots__ = ("used_ns", "outcome")

    def __init__(self, used_ns: float, outcome: ExecOutcome):
        self.used_ns = used_ns
        self.outcome = outcome

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExecResult({self.used_ns!r}, {self.outcome})"


@dataclass
class TaskStats:
    """Per-task accounting mirroring ``pidstat``/``perf sched`` columns."""

    voluntary_switches: int = 0      # cswch/s numerator
    involuntary_switches: int = 0    # nvcswch/s numerator
    runtime_ns: float = 0.0          # total CPU time consumed
    sched_delay_ns: float = 0.0      # sum of ready->running waits
    sched_delay_count: int = 0
    wakeups: int = 0

    @property
    def avg_sched_delay_ns(self) -> float:
        if self.sched_delay_count == 0:
            return 0.0
        return self.sched_delay_ns / self.sched_delay_count


class CoreTask:
    """Base class for schedulable entities.

    ``weight`` is the cgroup cpu.shares value (1024 = nice 0); CFS scales
    vruntime accrual by ``1024 / weight`` so heavier tasks accrue slower and
    therefore run longer — exactly the knob NFVnice's Monitor turns.
    """

    def __init__(self, name: str, weight: int = 1024):
        self.name = name
        self._weight = int(weight)
        self.state = BLOCKED
        self.vruntime = 0.0
        self.stats = TaskStats()
        self.core: Optional["Core"] = None  # set by Core.add_task
        self.last_ready_ns: int = 0
        # Policy bookkeeping slot (e.g. the CFS runqueue entry); owned by
        # the policy.
        self.sched_node = None

    # -- cgroup weight -------------------------------------------------
    @property
    def weight(self) -> int:
        return self._weight

    @weight.setter
    def weight(self, value: int) -> None:
        if value < 1:
            raise ValueError(f"weight must be >= 1, got {value!r}")
        old = self._weight
        self._weight = int(value)
        # A cgroup write can land while the task sits in a runqueue; the
        # policy must re-account any aggregate weight bookkeeping.
        if self.core is not None and old != self._weight:
            self.core.scheduler.on_weight_change(self, old, self._weight)

    # -- work interface (implemented by NF processes) -------------------
    def estimate_run_ns(self, now_ns: int) -> float:
        """Time until this task would voluntarily block, from ``now_ns``."""
        raise NotImplementedError

    def execute(self, now_ns: int, granted_ns: float) -> ExecResult:
        """Run for up to ``granted_ns``; mutate state; say why the run ended."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, {self.state.value})"


class Scheduler:
    """Policy interface: which READY task runs next and for how long."""

    #: Human-readable policy name (used in reports).
    name = "base"

    def enqueue(self, task: CoreTask, now_ns: int, wakeup: bool) -> None:
        """Add a READY task.  ``wakeup`` distinguishes wake from requeue."""
        raise NotImplementedError

    def dequeue(self, task: CoreTask, now_ns: int) -> None:
        """Remove a task that is leaving the READY state."""
        raise NotImplementedError

    def pick_next(self, now_ns: int) -> Optional[CoreTask]:
        """Pop the task to run now, or None if the runqueue is empty."""
        raise NotImplementedError

    def time_slice(self, task: CoreTask, now_ns: int) -> float:
        """Budget (ns) granted to ``task`` for this dispatch."""
        raise NotImplementedError

    def charge(self, task: CoreTask, delta_ns: float) -> None:
        """Account ``delta_ns`` of CPU consumed by the (running) task."""
        raise NotImplementedError

    def preempts_on_wake(self, woken: CoreTask, current: CoreTask,
                         current_ran_ns: float) -> bool:
        """Should ``woken`` preempt ``current`` immediately?"""
        return False

    def on_weight_change(self, task: CoreTask, old: int, new: int) -> None:
        """A queued task's cgroup weight was rewritten (default: no-op)."""
        return None

    @property
    def nr_ready(self) -> int:
        """Number of tasks currently queued (excluding the running one)."""
        raise NotImplementedError


def rq_insert(q: list, entry: tuple) -> None:
    """Insert ``entry`` — ``(key, seq, task)`` — into the sorted runqueue ``q``.

    ``seq`` grows with every insert, so an entry whose key is at least the
    tail's sorts last: the common requeue appends without a search.
    """
    if not q or entry[0] >= q[-1][0]:
        q.append(entry)
    else:
        insort(q, entry)
