"""Failure detection from the Monitor core.

The watchdog flags NFs that have *observably* stopped serving their
queue.  It deliberately sees only what a real NF manager could see —
ring counters, offered arrivals, scheduler state, the libnf heartbeat —
never the injector's ground-truth fault flags, so detection latency
measured in experiments is honest.

An NF is suspected when, for longer than the detection period:

* its Rx ring made no drain progress (``dequeued_total`` static), and
* there was demand — packets queued, or arrivals still being offered
  (a dead ring sheds arrivals, so depth alone can sit at zero), and
* it is parked BLOCKED (or its core failed) — a READY/RUNNING NF with
  backlog is merely CPU-starved, which is the scheduler's business, and
* it is not *legitimately* blocked: relinquish-flagged by backpressure,
  waiting on I/O, or stopped by a full Tx ring.  Those states resolve
  on their own; restarting such an NF would be a false positive.

Slowdowns are intentionally not flagged: a slow NF still progresses and
the cgroup weights already adapt to its measured service time.

The watchdog normally rides the Monitor thread's 1 ms tick (the paper's
Monitor core has the spare cycles; liveness checks must stay off the
data path).  Without a Monitor (cgroup weighting disabled) it runs as
its own periodic process at the same cadence.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.sched.base import TaskState
from repro.sim.engine import EventHandle, EventLoop

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.nf import NFProcess


class Watchdog:
    """Liveness checks over a dynamic roster of NFs."""

    def __init__(
        self,
        loop: EventLoop,
        detection_period_ns: int,
        on_suspect: Optional[Callable[["NFProcess", int], None]] = None,
    ):
        if detection_period_ns <= 0:
            raise ValueError(
                f"detection_period_ns must be > 0, got {detection_period_ns}"
            )
        self.loop = loop
        self.detection_period_ns = int(detection_period_ns)
        #: Called once per newly suspected NF: ``on_suspect(nf, now_ns)``.
        self.on_suspect = on_suspect
        self.nfs: List["NFProcess"] = []
        #: name -> detection time; insertion-ordered, cleared by forget().
        self.suspected: Dict[str, int] = {}
        self.checks = 0
        self.detections = 0
        self._last_drained: Dict[str, int] = {}
        self._last_offered: Dict[str, int] = {}
        #: Last time the NF looked alive (progress, no demand, or excused).
        self._alive_ns: Dict[str, int] = {}
        self._handle: Optional[EventHandle] = None

    # ------------------------------------------------------------------
    # Roster
    # ------------------------------------------------------------------
    def register(self, nf: "NFProcess") -> None:
        if nf not in self.nfs:
            self.nfs.append(nf)

    def forget(self, nf: "NFProcess") -> None:
        """Clear suspicion and restart the liveness clock (post-recovery)."""
        name = nf.name
        self.suspected.pop(name, None)
        self._last_drained.pop(name, None)
        self._last_offered.pop(name, None)
        self._alive_ns.pop(name, None)

    def remove(self, nf: "NFProcess") -> None:
        """Drop an NF from the roster entirely."""
        try:
            self.nfs.remove(nf)
        except ValueError:
            pass
        self.forget(nf)

    # ------------------------------------------------------------------
    # Standalone operation (no Monitor thread to ride on)
    # ------------------------------------------------------------------
    def start_standalone(self, period_ns: int) -> None:
        self._handle = self.loop.call_every(
            int(period_ns), lambda: self.tick(self.loop.now))

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()

    # ------------------------------------------------------------------
    def tick(self, now_ns: int) -> None:
        """One liveness pass over the roster (host: MonitorThread.tick)."""
        self.checks += 1
        for nf in self.nfs:
            if nf.name in self.suspected:
                continue
            self._check(nf, now_ns)

    def _check(self, nf: "NFProcess", now: int) -> None:
        name = nf.name
        drained = nf.rx_ring.dequeued_total
        offered = nf.offered_arrivals
        last_drained = self._last_drained.get(name)
        last_offered = self._last_offered.get(name, offered)
        self._last_drained[name] = drained
        self._last_offered[name] = offered
        if last_drained is None or drained != last_drained:
            # First sighting, or the queue moved: alive.
            self._alive_ns[name] = now
            return
        if len(nf.rx_ring) == 0 and offered <= last_offered:
            # No demand: an idle NF is indistinguishable from a dead one,
            # and restarting it would be pure churn.
            self._alive_ns[name] = now
            return
        if (
            nf.relinquish
            or (nf.io is not None and nf.io.blocked)
            or nf.tx_ring.free == 0
        ):
            # Legitimately parked; these states clear themselves.
            self._alive_ns[name] = now
            return
        core_down = nf.core is not None and nf.core.failed
        if nf.state is not TaskState.BLOCKED and not core_down:
            # Backlogged but READY/RUNNING: starved, not stuck.  Do not
            # refresh the clock — if it never gets the CPU *and* later
            # parks without draining, the stale window already ran.
            return
        alive = self._alive_ns.setdefault(name, now)
        if now - alive >= self.detection_period_ns:
            self.suspected[name] = now
            self.detections += 1
            if self.on_suspect is not None:
                self.on_suspect(nf, now)
