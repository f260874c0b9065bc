"""A rate-based TCP congestion-control model (iperf3 stand-in, §4.3.4).

The Figure 13 experiment needs the *dynamics* of a responsive flow: slow
start, additive increase, and a multiplicative decrease at most once per
RTT when the path reports loss or ECN CE marks.  The model runs one tick
per RTT:

* it reads the flow's cumulative loss (entry discards + queue drops) and
  CE-mark counters, which the platform maintains anyway;
* on fresh feedback it halves ``cwnd`` (and sets ``ssthresh``);
* otherwise it grows ``cwnd`` — doubling below ``ssthresh``, +1 above;
* the resulting rate ``cwnd / RTT`` is written into the generator's
  :class:`~repro.traffic.flows.FlowSpec`, closing the loop.
"""

from __future__ import annotations

from typing import Optional

from repro.platform.packet import Flow
from repro.sim.clock import MSEC, SEC
from repro.sim.engine import EventHandle, EventLoop
from repro.traffic.flows import FlowSpec


class TCPFlow:
    """AIMD rate control driving a :class:`FlowSpec`."""

    def __init__(
        self,
        loop: EventLoop,
        spec: FlowSpec,
        rtt_ns: int = 1 * MSEC,
        init_cwnd: float = 10.0,
        max_cwnd: float = 1000.0,
        ssthresh: Optional[float] = None,
    ):
        if spec.flow.protocol != "tcp":
            raise ValueError("TCPFlow requires a flow with protocol='tcp'")
        self.loop = loop
        self.spec = spec
        self.flow: Flow = spec.flow
        self.flow.tcp = self
        self.rtt_ns = int(rtt_ns)
        self.cwnd = float(init_cwnd)
        self.max_cwnd = float(max_cwnd)
        self.ssthresh = float(ssthresh) if ssthresh is not None else float(max_cwnd)
        self._last_lost = self.flow.stats.lost
        self._last_marks = self.flow.stats.ecn_marks
        self._pending_ecn = 0
        self.decreases = 0
        self._apply_rate()
        self._handle: Optional[EventHandle] = None

    def start(self) -> None:
        self._handle = self.loop.call_every(self.rtt_ns, self.tick)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()

    # ------------------------------------------------------------------
    def on_ecn_mark(self, count: int, now_ns: int) -> None:
        """CE marks echoed back by the receiver (counted next tick)."""
        self._pending_ecn += count

    def tick(self) -> None:
        lost = self.flow.stats.lost
        marks = self.flow.stats.ecn_marks
        fresh_loss = lost - self._last_lost
        fresh_marks = (marks - self._last_marks) + self._pending_ecn
        self._last_lost = lost
        self._last_marks = marks
        self._pending_ecn = 0

        if fresh_loss > 0 or fresh_marks > 0:
            # One multiplicative decrease per RTT, regardless of how many
            # packets were lost/marked in it (RFC 3168 / NewReno style).
            self.cwnd = max(1.0, self.cwnd / 2.0)
            self.ssthresh = self.cwnd
            self.decreases += 1
        elif self.cwnd < self.ssthresh:
            self.cwnd = min(self.cwnd * 2.0, self.ssthresh, self.max_cwnd)
        else:
            self.cwnd = min(self.cwnd + 1.0, self.max_cwnd)
        self._apply_rate()

    def _apply_rate(self) -> None:
        self.spec.rate_pps = self.cwnd * SEC / self.rtt_ns

    @property
    def rate_bps(self) -> float:
        return self.spec.rate_pps * self.flow.pkt_size * 8

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TCPFlow({self.flow.flow_id!r}, cwnd={self.cwnd:.1f}, "
            f"rate={self.rate_bps / 1e9:.2f}Gbps)"
        )
