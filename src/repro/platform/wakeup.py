"""The Wakeup subsystem (paper §3.2 "Activating NFs", §3.5).

NFs sleep blocked on a semaphore shared with the manager; the Wakeup
subsystem decides which NFs to make runnable.  Its policy "considers the
number of packets pending in its queue, its priority relative to other
NFs, and knowledge of the queue lengths of downstream NFs in the same
chain" — concretely: an NF is woken only when it has packets, its output
ring has room, its I/O buffers are not exhausted, and backpressure has not
flagged it to stay off the CPU.

The control decision to apply backpressure is delegated here too (§3.5):
each scan first advances the backpressure state machine, then wakes every
eligible NF.  Data-path components additionally call :meth:`notify`
immediately after enqueueing so wake latency is not bounded by the scan
period.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.platform.config import PlatformConfig
from repro.sched.base import BLOCKED
from repro.sim.clock import grid_after
from repro.sim.engine import EventHandle, EventLoop

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.backpressure import BackpressureController
    from repro.core.nf import NFProcess


class WakeupSubsystem:
    """Semaphore posting with eligibility gating."""

    def __init__(
        self,
        loop: EventLoop,
        nfs: List["NFProcess"],
        backpressure: Optional["BackpressureController"],
        config: Optional[PlatformConfig] = None,
    ):
        self.loop = loop
        self.nfs = list(nfs)
        self.backpressure = backpressure
        self.config = config if config is not None else PlatformConfig()
        self.wakeups_posted = 0
        #: Optional :class:`repro.obs.observer.Observer`, wired by the manager.
        self.obs = None
        self._scan_ns = int(self.config.wakeup_scan_ns)
        self._tick: Optional[EventHandle] = None

    def start(self, epoch: Optional[int] = None) -> None:
        """Begin scanning on the grid ``epoch + k·wakeup_scan_ns``
        (``k >= 1``, ``epoch`` defaults to now), from its first point
        after now."""
        if self._tick is None:
            now = self.loop.now
            origin = now if epoch is None else int(epoch)
            self._tick = self.loop.call_every(
                self._scan_ns, self.scan,
                first=grid_after(origin, self._scan_ns, now))

    def stop(self) -> None:
        if self._tick is not None:
            self._tick.cancel()
            self._tick = None

    # ------------------------------------------------------------------
    # Dynamic membership (NFs may register/retire after construction:
    # a restarted instance, a scaled-out replica).
    # ------------------------------------------------------------------
    def add_nf(self, nf: "NFProcess") -> None:
        """Include a late-registered NF in the periodic scan."""
        if nf not in self.nfs:
            self.nfs.append(nf)

    def remove_nf(self, nf: "NFProcess") -> None:
        """Retire an NF from the scan (no-op if absent)."""
        try:
            self.nfs.remove(nf)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    def eligible(self, nf: "NFProcess") -> bool:
        """May this blocked NF usefully run right now?"""
        if nf.state is not BLOCKED:
            return False
        if nf.failed or nf.hung or nf.rx_ring.sealed:
            # Crashed / wedged / ring gone: posting the semaphore cannot
            # help; the watchdog-and-recovery path owns this NF now.
            return False
        if nf.core is not None and nf.core.failed:
            return False
        if nf.relinquish:
            return False
        if nf.busy_loop:
            return True
        if nf.io is not None and nf.io.blocked:
            return False
        if nf.rx_ring._count == 0:
            return False
        tx = nf.tx_ring
        if tx._count >= tx.capacity:
            return False
        return True

    def notify(self, nf: "NFProcess") -> bool:
        """Fast-path wake attempt after an enqueue or a resource release."""
        # eligible() starts with the BLOCKED test, which the data-path
        # callers have already passed; it is not repeated here.
        if nf.core is None or not self.eligible(nf):
            return False
        if nf.core.wake(nf):
            self.wakeups_posted += 1
            if self.obs is not None:
                self.obs.on_wakeup_post(nf)
            return True
        return False

    def scan(self) -> None:
        """Periodic pass: advance backpressure, then wake whoever is ready."""
        if self.backpressure is not None:
            self.backpressure.evaluate(self.loop.now)
        notify = self.notify
        for nf in self.nfs:
            if nf.state is BLOCKED:
                notify(nf)
