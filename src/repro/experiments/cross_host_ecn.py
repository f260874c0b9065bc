"""Cross-host congestion management with ECN (paper §3.3).

A TCP flow crosses a service chain *spread over two hosts*: a forwarder
on host A, then a 10 µs wire, then a heavyweight NF on host B where the
flow bottlenecks.  Host A's backpressure cannot see host B's queues —
the only cross-machine signal is ECN: host B's Tx threads CE-mark the
flow when its bottleneck queue's EWMA grows, and the TCP source slows
down end to end.

The run is a :class:`~repro.cluster.scenario.ClusterScenario` placement
with a ``(host, core)`` slot per NF, so the run flags reach it and
arrivals cross the ToR ingress link like every cluster run.

Compared: drops-only (ECN off on both hosts) vs ECN on.  With ECN the
bottleneck queue stabilises below the marking threshold: losses fall
more than tenfold while about 80% of the goodput is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.cluster.scenario import ClusterScenario
from repro.metrics.report import render_table
from repro.sim.clock import MSEC
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
    scenario = ClusterScenario(2, scheduler="NORMAL", features="Default",
                               seed=seed, enable_ecn=ecn)
    # A light forwarder on host 0, the bottleneck NF on host 1.
    scenario.set_chain("xhost", (300, 8000), placements=[((0, 0), (1, 0))])
    flow = scenario.add_flow("tcp", rate_pps=1.0, pkt_size=1500,
                             protocol="tcp")
    tcp = TCPFlow(scenario.loop, scenario.generator.specs[-1],
                  rtt_ns=1 * MSEC, max_cwnd=2000.0)
    tcp.start()
    result = scenario.run(duration_s)
    last_leg = scenario.steerer.placements[0].chains[-1]
    links = result.resilience["cluster"]["links"]
    return CrossHostResult(
        ecn=ecn,
        goodput_gbps=last_leg.completed * 1500 * 8 / duration_s / 1e9,
        lost_packets=flow.stats.lost,       # shared stats: both hosts
        marked_packets=flow.stats.ecn_marks,
        carried_packets=links["h0.nic->h1.nic"]["carried_packets"],
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
