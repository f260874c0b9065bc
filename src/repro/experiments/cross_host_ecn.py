"""Cross-host congestion management with ECN (paper §3.3).

A TCP flow crosses a service chain *spread over two hosts*: a forwarder
on host A, then a 10 µs wire, then a heavyweight NF on host B where the
flow bottlenecks.  Host A's backpressure cannot see host B's queues —
the only cross-machine signal is ECN: host B's Tx threads CE-mark the
flow when its bottleneck queue's EWMA grows, and the TCP source slows
down end to end.

Compared: drops-only (ECN off on both hosts) vs ECN on.  With ECN the
bottleneck queue stabilises below the marking threshold and losses drop
to (near) zero at comparable goodput.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List

from repro.cluster.topology import ClusterTopology
from repro.core.nf import NFProcess
from repro.nfs.cost_models import FixedCost
from repro.metrics.report import render_table
from repro.platform.config import default_platform_config
from repro.platform.packet import Flow
from repro.sim.clock import MSEC, SEC, USEC
from repro.sim.engine import EventLoop
from repro.traffic.flows import FlowSpec
from repro.traffic.generator import TrafficGenerator
from repro.traffic.tcp import TCPFlow


@dataclass
class CrossHostResult:
    ecn: bool
    goodput_gbps: float       # completions at the final host
    lost_packets: int
    marked_packets: int
    carried_packets: int      # packets that crossed the wire


def run_case(ecn: bool, duration_s: float = 5.0,
             seed: int = 0) -> CrossHostResult:
    loop = EventLoop()
    cfg = dataclasses.replace(default_platform_config(), enable_ecn=ecn)
    topology = ClusterTopology(loop, 2, scheduler="NORMAL", config=cfg)
    host_a = topology.host(0).manager
    host_b = topology.host(1).manager
    # Host A: a light forwarder; Host B: the bottleneck NF.
    fwd = NFProcess("fwd", FixedCost(300), config=cfg)
    host_a.add_nf(fwd, core_id=0)
    chain_a = host_a.add_chain("leg-a", [fwd])
    heavy = NFProcess("heavy", FixedCost(8000), config=cfg)
    host_b.add_nf(heavy, core_id=0)
    chain_b = host_b.add_chain("leg-b", [heavy])

    flow_a = Flow("tcp", pkt_size=1500, protocol="tcp")
    host_a.install_flow(flow_a, chain_a)

    link = topology.connect(0, 1, latency_ns=10 * USEC)
    flow_b = link.connect_flow(flow_a)
    host_b.install_flow(flow_b, chain_b)

    gen = TrafficGenerator(loop, host_a.nic)
    spec = gen.add(FlowSpec(flow_a, rate_pps=1.0))
    tcp = TCPFlow(loop, spec, rtt_ns=1 * MSEC, max_cwnd=2000.0)

    topology.start()
    gen.start()
    tcp.start()
    loop.run_until(int(duration_s * SEC))
    topology.finalize()

    return CrossHostResult(
        ecn=ecn,
        goodput_gbps=chain_b.completed * 1500 * 8 / duration_s / 1e9,
        lost_packets=flow_a.stats.lost,       # shared stats: both hosts
        marked_packets=flow_a.stats.ecn_marks,
        carried_packets=link.carried_packets,
    )


def run_cross_host(duration_s: float = 5.0) -> Dict[bool, CrossHostResult]:
    return {ecn: run_case(ecn, duration_s) for ecn in (False, True)}


def format_cross_host(results: Dict[bool, CrossHostResult]) -> str:
    rows: List[list] = []
    for ecn in (False, True):
        res = results[ecn]
        rows.append([
            "ECN" if ecn else "drops-only",
            round(res.goodput_gbps, 3),
            res.lost_packets,
            res.marked_packets,
            res.carried_packets,
        ])
    return render_table(
        ["signal", "goodput Gbps", "lost pkts", "CE marks", "wire pkts"],
        rows,
        title="Cross-host chain: congestion signalled across machines",
    )


def main(duration_s: float = 5.0) -> str:
    return format_cross_host(run_cross_host(duration_s))


if __name__ == "__main__":  # pragma: no cover - manual runs
    print(main())
