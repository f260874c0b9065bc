"""NIC model and line-rate arithmetic.

The testbed uses dual-port 10 Gbps NICs connected back-to-back (§4.1).
On the wire an Ethernet frame carries 20 bytes of overhead beyond the
frame itself (preamble, SFD, inter-frame gap), so 64-byte packets at
10 Gbps arrive at 14.88 Mpps — the line rate MoonGen and Pktgen generate.
"""

from __future__ import annotations


from repro.platform.packet import Flow, PacketSegment
from repro.platform.ring import PacketRing

#: Preamble (7) + SFD (1) + inter-frame gap (12) bytes per frame on the wire.
WIRE_OVERHEAD_BYTES = 20


def line_rate_pps(pkt_size: int, link_bps: float = 10e9) -> float:
    """Maximum packets/second of ``pkt_size``-byte frames on ``link_bps``."""
    if pkt_size <= 0:
        raise ValueError("pkt_size must be positive")
    wire_bits = (pkt_size + WIRE_OVERHEAD_BYTES) * 8
    return link_bps / wire_bits


class NIC:
    """A port: an Rx ring the generator fills and egress counters.

    The hardware Rx ring is larger than NF rings (DPDK default 8192
    descriptors here); when the manager's Rx thread cannot drain it in
    time, excess arrivals are dropped on the floor exactly as a real NIC
    drops on RX-ring exhaustion.
    """

    def __init__(self, link_bps: float = 10e9, rx_capacity: int = 8192,
                 name: str = "nic0"):
        self.name = name
        self.link_bps = float(link_bps)
        self.rx_ring = PacketRing(capacity=rx_capacity, name=f"{name}.rx")
        self.tx_packets = 0
        self.tx_bytes = 0
        #: Optional egress tap, called with each transmitted segment: a
        #: :class:`~repro.cluster.topology.CrossHostLink` carries packets to
        #: the next host of a multi-host service chain (§3.3) and returns
        #: whether it took the segment.
        self.on_transmit = None

    def receive(self, flow: Flow, count: int, now_ns: int) -> int:
        """Packets arriving from the wire; returns how many were accepted."""
        accepted, _dropped, _hi = self.rx_ring.enqueue(flow, count, now_ns)
        return accepted

    def transmit(self, segment: PacketSegment) -> bool:
        """Send a processed segment out the port; True when the egress tap
        carried it on to another host (a hand-off, not a delivery)."""
        self.tx_packets += segment.count
        self.tx_bytes += segment.count * segment.flow.pkt_size
        return self.on_transmit is not None and self.on_transmit(segment)

    @property
    def rx_dropped(self) -> int:
        """Packets lost to Rx-ring exhaustion (imissed in DPDK terms)."""
        return self.rx_ring.dropped_total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NIC({self.name!r}, {self.link_bps / 1e9:g}Gbps)"
