"""Inter-host fabric links: the wire model of the cluster.

The one link primitive every topology edge is built from: the ToR-to-host
ingress star and the host-to-host wires of paper §3.3
(:meth:`repro.cluster.topology.ClusterTopology.connect`).  A
:class:`FabricLink` models one direction of one wire:

* **serialisation** — packets occupy the wire for ``wire_bits / link_bps``
  seconds; back-to-back sends queue behind ``busy_until``;
* **propagation** — delivery lands ``latency_ns`` after serialisation
  completes;
* **queue cap** — at most ``queue_cap_pkts`` packets may be in flight
  (serialising + propagating); the excess is dropped and charged to
  ``flow.stats.queue_drops`` so the sanitizer's packet-conservation
  identity keeps holding across the fabric;
* **ECN** — when the in-flight backlog exceeds ``ecn_mark_pkts``,
  responsive (TCP) flows are CE-marked with the same semantics as
  :meth:`repro.core.ecn.ECNMarker.mark`, extending the paper's cross-host
  congestion signal to fabric queues.

Counters (``carried_packets``, ``carried_bytes``, ``dropped_packets``,
``ecn_marked``, ``in_flight``) are exported as labelled Prometheus
gauges/counters by :meth:`repro.obs.session.ObsSession.
register_link_metrics`; drop and mark events are published on an attached
PR 1 event bus as ``link.drop`` / ``link.ecn``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.platform.nic import WIRE_OVERHEAD_BYTES
from repro.platform.packet import Flow
from repro.sim.clock import SEC
from repro.sim.engine import EventLoop

#: Delivery callback: ``(flow, count, origin_ns)`` at the arrival instant.
DeliverFn = Callable[[Flow, int, int], None]


class FabricLink:
    """One directed link of the cluster fabric."""

    def __init__(
        self,
        loop: EventLoop,
        name: str,
        deliver: DeliverFn,
        latency_ns: int = 10_000,
        link_bps: float = 10e9,
        queue_cap_pkts: Optional[int] = None,
        ecn_mark_pkts: Optional[int] = None,
    ) -> None:
        if queue_cap_pkts is not None and queue_cap_pkts <= 0:
            raise ValueError(
                f"queue_cap_pkts must be positive, got {queue_cap_pkts!r}")
        if ecn_mark_pkts is not None and ecn_mark_pkts < 0:
            raise ValueError(
                f"ecn_mark_pkts must be >= 0, got {ecn_mark_pkts!r}")
        self.loop = loop
        self.name = name
        self.latency_ns = int(latency_ns)
        self.link_bps = float(link_bps)
        self.queue_cap_pkts = queue_cap_pkts
        self.ecn_mark_pkts = ecn_mark_pkts
        self._deliver: DeliverFn = deliver
        self._busy_until: float = 0.0
        #: Packets accepted onto the wire (serialising or propagating).
        self.in_flight: int = 0
        self.carried_packets: int = 0
        self.carried_bytes: int = 0
        self.dropped_packets: int = 0
        self.ecn_marked: int = 0
        #: Optional :class:`repro.obs.bus.EventBus` publishing
        #: ``link.drop`` / ``link.ecn`` events.
        self.bus: Optional[Any] = None

    # ------------------------------------------------------------------
    def send(self, flow: Flow, count: int, now_ns: int,
             origin_ns: Optional[int] = None) -> int:
        """Offer ``count`` packets of ``flow`` to the wire.

        Returns how many were accepted; the rest were queue-capped drops,
        already charged to ``flow.stats.queue_drops``.  ``origin_ns``
        rides through to delivery so end-to-end latency spans the fabric.
        """
        if count <= 0:
            return 0
        origin = int(now_ns) if origin_ns is None else int(origin_ns)
        cap = self.queue_cap_pkts
        if cap is not None and self.in_flight + count > cap:
            accepted = max(0, cap - self.in_flight)
            dropped = count - accepted
            self.dropped_packets += dropped
            flow.stats.queue_drops += dropped
            if self.bus is not None and self.bus.active:
                self.bus.publish("link.drop", self.name, count=dropped,
                                 in_flight=self.in_flight)
            if accepted == 0:
                return 0
            count = accepted
        # Serialise onto the wire (link-rate cap), then propagate.
        wire_bits = count * (flow.pkt_size + WIRE_OVERHEAD_BYTES) * 8
        start = max(float(now_ns), self._busy_until)
        done = start + wire_bits * SEC / self.link_bps
        self._busy_until = done
        arrival = done + self.latency_ns
        self.in_flight += count
        self.carried_packets += count
        self.carried_bytes += count * flow.pkt_size
        mark_at = self.ecn_mark_pkts
        if mark_at is not None and self.in_flight > mark_at:
            self._mark(flow, count, int(now_ns))
        n = count

        def deliver_event() -> None:
            self.in_flight -= n
            self._deliver(flow, n, origin)

        self.loop.call_at(arrival, deliver_event)
        return count

    def _mark(self, flow: Flow, count: int, now_ns: int) -> None:
        """CE-mark a responsive flow (ECNMarker.mark semantics)."""
        if not flow.responsive:
            return
        flow.stats.ecn_marks += count
        self.ecn_marked += count
        if self.bus is not None and self.bus.active:
            self.bus.publish("link.ecn", self.name, count=count,
                             flow=flow.flow_id)
        if flow.tcp is not None:
            flow.tcp.on_ecn_mark(count, now_ns)

    # ------------------------------------------------------------------
    def counters(self) -> dict:
        """JSON-safe counter snapshot (digest material for results)."""
        return {
            "carried_packets": self.carried_packets,
            "carried_bytes": self.carried_bytes,
            "dropped_packets": self.dropped_packets,
            "ecn_marked": self.ecn_marked,
            "in_flight": self.in_flight,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FabricLink({self.name!r}, {self.latency_ns}ns, "
                f"{self.link_bps / 1e9:g}Gbps)")
