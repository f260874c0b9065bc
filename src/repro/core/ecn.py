"""ECN marking on persistent queue build-up (paper §3.3).

"To facilitate congestion control across machines, the NF Manager will
also mark the ECN bits in TCP flows ... Since ECN works at longer
timescales, we monitor queue lengths with an exponentially weighted moving
average and use that to trigger marking of flows following [RFC 3168]."

The Tx threads update one EWMA per NF Rx ring each poll; while the EWMA
exceeds the marking threshold, segments of *responsive* flows enqueued to
that ring are CE-marked.  Marks feed back into the TCP model
(:mod:`repro.traffic.tcp`), which reacts like an RFC 3168 sender — one
multiplicative decrease per RTT.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.platform.config import PlatformConfig
from repro.platform.packet import Flow
from repro.platform.ring import PacketRing


class ECNMarker:
    """EWMA queue-length tracker and CE-marking decision per ring."""

    def __init__(self, config: Optional[PlatformConfig] = None):
        self.config = config if config is not None else PlatformConfig()
        self._ewma: Dict[str, float] = {}
        self.marked_packets = 0
        #: Optional :class:`repro.obs.observer.Observer`, wired by the manager.
        self.obs = None

    def observe(self, ring: PacketRing) -> float:
        """Fold the ring's instantaneous length into its EWMA; returns it."""
        alpha = self.config.ecn_ewma_alpha
        prev = self._ewma.get(ring.name, 0.0)
        ewma = (1.0 - alpha) * prev + alpha * len(ring)
        self._ewma[ring.name] = ewma
        return ewma

    def ewma_of(self, ring: PacketRing) -> float:
        return self._ewma.get(ring.name, 0.0)

    def mark_fraction(self, ring: PacketRing) -> float:
        """RED-style marking probability from the EWMA queue length."""
        lo = self.config.ecn_min_fraction * ring.capacity
        hi = self.config.ecn_max_fraction * ring.capacity
        ewma = self._ewma.get(ring.name, 0.0)
        if ewma <= lo:
            return 0.0
        if ewma >= hi:
            return 1.0
        return (ewma - lo) / (hi - lo)

    def should_mark(self, ring: PacketRing) -> bool:
        return self.mark_fraction(ring) > 0.0

    def mark(self, flow: Flow, count: int, now_ns: int) -> int:
        """CE-mark ``count`` packets of ``flow`` if it is ECN-capable.

        Non-responsive (UDP) flows ignore ECN; marking them would be a
        no-op on the wire, so we skip it entirely.  Returns packets marked.
        """
        if not flow.responsive or count <= 0:
            return 0
        flow.stats.ecn_marks += count
        self.marked_packets += count
        if self.obs is not None:
            self.obs.on_ecn_mark(flow, count)
        if flow.tcp is not None:
            flow.tcp.on_ecn_mark(count, now_ns)
        return count
