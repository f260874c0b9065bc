"""The NF Manager's Rx thread (paper §3.1).

"When packets arrive to the NIC, Rx threads in the NF Manager take
advantage of DPDK's poll mode driver to deliver the packets into a shared
memory region ... The Rx thread does a lookup in the Flow Table to direct
the packet to the appropriate NF."

This is also where backpressure bites: arrivals for a throttled service
chain are discarded *before* the first NF spends any cycles on them —
the selective early discard that saves the wasted work (§3.3, Figure 5).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.platform.config import PlatformConfig
from repro.platform.flow_table import FlowTable
from repro.platform.nic import NIC
from repro.platform.wakeup import WakeupSubsystem
from repro.sched.base import BLOCKED
from repro.sim.clock import grid_after
from repro.sim.engine import EventHandle, EventLoop

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.backpressure import BackpressureController
    from repro.core.ecn import ECNMarker


class RxThread:
    """Polls the NIC Rx ring and feeds first-hop NF rings."""

    def __init__(
        self,
        loop: EventLoop,
        nic: NIC,
        flow_table: FlowTable,
        wakeup: WakeupSubsystem,
        backpressure: Optional["BackpressureController"],
        config: Optional[PlatformConfig] = None,
        ecn: Optional["ECNMarker"] = None,
    ):
        self.loop = loop
        self.nic = nic
        self.flow_table = flow_table
        self.wakeup = wakeup
        self.backpressure = backpressure
        self.ecn = ecn
        self.config = config if config is not None else PlatformConfig()
        self.delivered = 0
        self.early_discards = 0
        self.unroutable = 0
        #: Optional :class:`repro.obs.observer.Observer`, wired by the manager.
        self.obs = None
        cap = self.config.rx_thread_max_pps
        if cap is None:
            self._budget_per_poll = None
        else:
            self._budget_per_poll = (
                cap * self.config.num_rx_threads * self.config.rx_poll_ns / 1e9
            )
        self._budget_carry = 0.0
        self._poll_ns = int(self.config.rx_poll_ns)
        self._tick: Optional[EventHandle] = None

    def start(self, epoch: Optional[int] = None) -> None:
        """Begin polling on the grid ``epoch + k·rx_poll_ns`` (``k >= 1``,
        ``epoch`` defaults to now), from its first point after now.

        A late start replays, one poll at a time, the budget carry of the
        grid points it skipped, so the carry matches a thread that polled
        from ``epoch`` (a closed form would not be bit-identical).
        """
        if self._tick is not None:
            return
        now = self.loop.now
        origin = now if epoch is None else int(epoch)
        first = grid_after(origin, self._poll_ns, now)
        per_poll = self._budget_per_poll
        if per_poll is not None:
            for _ in range((first - origin) // self._poll_ns - 1):
                self._budget_carry += per_poll
                self._budget_carry -= int(self._budget_carry)
        # Recurring handle re-armed in place by the loop — no per-poll
        # event allocation (EventLoop.call_every).
        self._tick = self.loop.call_every(self._poll_ns, self.poll,
                                          first=first)

    def stop(self) -> None:
        if self._tick is not None:
            self._tick.cancel()
            self._tick = None

    # ------------------------------------------------------------------
    def poll(self) -> None:
        """Drain the NIC ring, classify, early-discard or deliver."""
        now = self.loop.now
        shed = self.backpressure is not None
        ring = self.nic.rx_ring
        if self._budget_per_poll is None:
            budget = ring.capacity
        else:
            # The carry accrues every poll, packets or not, so a capped
            # thread's budget sequence is independent of arrival timing.
            self._budget_carry += self._budget_per_poll
            budget = int(self._budget_carry)
            self._budget_carry -= budget
        if not ring._count:
            return
        for seg in ring.dequeue(budget):
            flow = seg.flow
            chain = self.flow_table.lookup(flow)
            if chain is None:
                self.unroutable += seg.count
                continue
            if shed and chain.throttled:
                chain.entry_discards += seg.count
                flow.stats.entry_discards += seg.count
                self.early_discards += seg.count
                if self.obs is not None:
                    self.obs.on_entry_discard(chain, flow, seg.count)
                continue
            first = chain.nfs[0]
            # Zero-copy: the NF's Rx ring adopts the NIC descriptor.
            accepted, _dropped, above_high = first.rx_ring.admit(seg, now)
            # Drops here waste nothing: no NF has touched these packets yet.
            if above_high and self.backpressure is not None:
                self.backpressure.mark_overloaded(first)
            if accepted:
                if self.ecn is not None and flow.responsive:
                    fraction = self.ecn.mark_fraction(first.rx_ring)
                    to_mark = int(round(accepted * fraction))
                    if to_mark:
                        self.ecn.mark(flow, to_mark, now)
                self.delivered += accepted
                if first.state is BLOCKED:
                    self.wakeup.notify(first)
