"""The NF Manager's Tx threads (paper §3.1, §3.5).

"After being processed by an NF, the NF Manager's Tx Threads move packets
through the remainder of the chain" — from each NF's Tx ring either to the
next NF's Rx ring (zero copy) or out the NIC when the chain is complete.

Overload *detection* lives here for free: the watermark feedback returned
by the downstream enqueue marks the NF overloaded on the backpressure
watch list without any extra work on the data path.  Packets that do not
fit in a downstream ring are dropped — this is precisely the *wasted work*
the paper quantifies (Tables 3, 5, 6), since every upstream NF already
spent cycles on them; the drop is attributed to the NF that just processed
them.

The Tx threads also update the per-ring queue-length EWMA and CE-mark
responsive flows when it exceeds the marking threshold (§3.3).
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.platform.config import PlatformConfig
from repro.platform.nic import NIC
from repro.platform.wakeup import WakeupSubsystem
from repro.sched.base import BLOCKED
from repro.sim.clock import grid_after
from repro.sim.engine import EventHandle, EventLoop

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.backpressure import BackpressureController
    from repro.core.ecn import ECNMarker
    from repro.core.nf import NFProcess


class TxThread:
    """Ferries segments NF→NF and NF→NIC, detecting overload as it goes."""

    def __init__(
        self,
        loop: EventLoop,
        nfs: List["NFProcess"],
        nic: NIC,
        wakeup: WakeupSubsystem,
        backpressure: Optional["BackpressureController"],
        ecn: Optional["ECNMarker"] = None,
        config: Optional[PlatformConfig] = None,
    ):
        self.loop = loop
        self.nfs = list(nfs)
        self.nic = nic
        self.wakeup = wakeup
        self.backpressure = backpressure
        self.ecn = ecn
        self.config = config if config is not None else PlatformConfig()
        #: Optional :class:`repro.obs.observer.Observer` whose trackers get
        #: every chain completion and wasted drop (wired by the manager).
        self.obs = None
        self._poll_ns = int(self.config.tx_poll_ns)
        self._tick: Optional[EventHandle] = None

    def start(self, phase_ns: int = 0, epoch: Optional[int] = None) -> None:
        """Begin polling on the grid ``epoch + phase_ns + k·tx_poll_ns``
        (``k >= 1``, ``epoch`` defaults to now), from its first point after
        now; ``phase_ns`` staggers multiple Tx threads so they interleave
        instead of firing back to back."""
        if self._tick is None:
            now = self.loop.now
            origin = (now if epoch is None else int(epoch)) + int(phase_ns)
            self._tick = self.loop.call_every(
                self._poll_ns, self.poll,
                first=grid_after(origin, self._poll_ns, now))

    def stop(self) -> None:
        if self._tick is not None:
            self._tick.cancel()
            self._tick = None

    # ------------------------------------------------------------------
    def poll(self) -> None:
        now = self.loop.now
        route = self._route
        notify = self.wakeup.notify
        for nf in self.nfs:
            ring = nf.tx_ring
            if not ring._count:
                continue
            for seg in ring.drain():
                route(nf, seg, now)
            # The NF may have been blocked on a full Tx ring; there is room
            # again, so give it a chance to resume (local backpressure
            # release, §3.3).  notify() is a no-op unless the NF is
            # blocked, so the state check is pure fast-path.
            if nf.state is BLOCKED:
                notify(nf)
        if self.ecn is not None:
            for nf in self.nfs:
                self.ecn.observe(nf.rx_ring)

    def _route(self, nf: "NFProcess", seg, now: int) -> None:
        flow = seg.flow
        chain = flow.chain
        if chain is None:
            # Untracked flow: send it out the port.
            self.nic.transmit(seg)
            return
        nxt = chain._next[nf]
        if nxt is None:
            handed_off = self.nic.transmit(seg)
            chain.completed += seg.count
            chain.completed_bytes += seg.count * flow.pkt_size
            latency = now - seg.origin_ns
            if latency >= 0:
                chain.latency_hist.add(latency, weight=seg.count)
            if handed_off:  # a leg of a chain spanning hosts: not delivered
                chain.handed_off += seg.count
                return
            flow.stats.delivered += seg.count
            if latency >= 0 and self.obs is not None:
                self.obs.on_delivery(flow, chain, seg.origin_ns, now,
                                     seg.count)
            return
        # Zero-copy: the next NF's Rx ring adopts the descriptor.
        accepted, dropped, above_high = nxt.rx_ring.admit(seg, now)
        if dropped:
            # Work already performed upstream is lost with these packets.
            chain.wasted_drops += dropped
            nf.wasted_processed += dropped
            if self.obs is not None:
                # The full ring that destroyed this upstream work belongs
                # to the congested downstream NF.
                self.obs.on_wasted_drop(nxt, dropped)
        if above_high and self.backpressure is not None:
            self.backpressure.mark_overloaded(nxt)
        if accepted:
            if self.ecn is not None and flow.responsive:
                fraction = self.ecn.mark_fraction(nxt.rx_ring)
                to_mark = int(round(accepted * fraction))
                if to_mark:
                    self.ecn.mark(flow, to_mark, now)
            if nxt.state is BLOCKED:
                self.wakeup.notify(nxt)
