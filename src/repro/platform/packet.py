"""Flows and packet segments.

Simulating multi-Mpps workloads packet-object-by-packet-object is not
feasible in Python, and not necessary: every mechanism in the paper —
queue lengths, watermarks, per-chain throttling, ECN marking, drops,
latency — operates on *runs of packets belonging to the same flow*.  Queues
therefore carry :class:`PacketSegment` records ``(flow, count,
enqueue_ns)``: FIFO order, exact counts and timestamps are preserved while
the cost per queue operation is amortised over the whole run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.platform.chain import ServiceChain


class Flow:
    """A packet flow: five-tuple stand-in plus the chain it is steered to.

    ``responsive`` marks flows that react to congestion feedback (TCP);
    the ECN subsystem only marks, and the backpressure evaluation only
    credits rate adaptation to, responsive flows.
    """

    __slots__ = (
        "flow_id",
        "chain",
        "pkt_size",
        "protocol",
        "responsive",
        "tcp",
        "stats",
        "slo_ns",
    )

    def __init__(
        self,
        flow_id: str,
        pkt_size: int = 64,
        protocol: str = "udp",
        chain: Optional["ServiceChain"] = None,
        slo_ns: Optional[int] = None,
    ):
        if pkt_size <= 0:
            raise ValueError(f"pkt_size must be positive, got {pkt_size!r}")
        if slo_ns is not None and slo_ns <= 0:
            raise ValueError(f"slo_ns must be positive, got {slo_ns!r}")
        if protocol not in ("udp", "tcp"):
            raise ValueError(
                f"protocol must be 'udp' or 'tcp', got {protocol!r}")
        self.flow_id = flow_id
        self.chain = chain
        self.pkt_size = int(pkt_size)
        self.protocol = protocol
        self.responsive = protocol == "tcp"
        #: End-to-end sojourn budget (ns) from the flow's SLO class, or
        #: None when no class was declared.  Deadline-aware schedulers
        #: read it as ``origin_ns + slo_ns`` for the head-of-ring packet.
        self.slo_ns = slo_ns
        #: Set by :class:`repro.traffic.tcp.TCPFlow` when this flow is
        #: congestion controlled; receives loss/ECN feedback.
        self.tcp = None
        self.stats = FlowStats()

    def clone_shared(self) -> "Flow":
        """A per-host twin of this flow for multi-host chains (§3.3).

        ``chain`` is host-local (each host steers the flow into its own
        chain segment), but ``stats`` and the TCP model are shared so
        losses and ECN marks from *any* host feed the same sender.
        """
        twin = Flow(self.flow_id, pkt_size=self.pkt_size,
                    protocol=self.protocol, slo_ns=self.slo_ns)
        twin.stats = self.stats
        twin.tcp = self.tcp
        return twin

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        chain = self.chain.name if self.chain else None
        return f"Flow({self.flow_id!r}, {self.protocol}, chain={chain})"


class FlowStats:
    """Per-flow counters the isolation experiments report."""

    __slots__ = (
        "offered",
        "delivered",
        "entry_discards",
        "queue_drops",
        "ecn_marks",
    )

    def __init__(self) -> None:
        self.offered = 0         # packets the generator produced
        self.delivered = 0       # packets that completed their chain
        self.entry_discards = 0  # dropped at system entry by backpressure
        self.queue_drops = 0     # dropped at a full NF ring
        self.ecn_marks = 0       # packets CE-marked by the Tx threads

    @property
    def lost(self) -> int:
        return self.entry_discards + self.queue_drops


class PacketSegment:
    """A run of ``count`` back-to-back packets of one flow.

    ``enqueue_ns`` is stamped when the segment enters a queue and is used
    for queuing-time thresholds (backpressure) and latency accounting.
    ``origin_ns`` is stamped once, when the packets first arrive at the
    NIC, and is carried through every hop so chain completion can account
    true end-to-end latency.
    """

    __slots__ = ("flow", "count", "enqueue_ns", "origin_ns")

    def __init__(self, flow: Flow, count: int, enqueue_ns: int = 0,
                 origin_ns: Optional[int] = None):
        if count <= 0:
            raise ValueError(f"segment count must be positive, got {count!r}")
        self.flow = flow
        self.count = int(count)
        self.enqueue_ns = int(enqueue_ns)
        self.origin_ns = int(enqueue_ns) if origin_ns is None else int(origin_ns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PacketSegment({self.flow.flow_id!r} x{self.count} "
            f"@{self.enqueue_ns})"
        )
