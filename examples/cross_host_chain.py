#!/usr/bin/env python3
"""A service chain spread over two hosts, with cross-host ECN (§3.3).

Host A runs a forwarder; a 10 µs / 10 GbE wire carries the flow to host
B, whose heavyweight NF is the end-to-end bottleneck.  Host A's
backpressure cannot see host B's queues — ECN marks applied by host B's
manager travel back to the TCP sender, which is the paper's answer for
"chains spread across several hosts".

Run:  python examples/cross_host_chain.py
"""

import dataclasses

from repro import (
    MSEC,
    SEC,
    USEC,
    EventLoop,
    Flow,
    TrafficGenerator,
    default_platform_config,
    make_nf,
    render_table,
)
from repro.cluster import ClusterTopology
from repro.traffic.flows import FlowSpec
from repro.traffic.tcp import TCPFlow


def run(ecn: bool, duration_s: float = 3.0):
    loop = EventLoop()
    config = dataclasses.replace(default_platform_config(), enable_ecn=ecn)

    topology = ClusterTopology(loop, 2, scheduler="NORMAL", config=config)
    host_a = topology.host(0).manager
    host_b = topology.host(1).manager
    host_a.add_nf(make_nf("fwd", 300, config=config))
    host_b.add_nf(make_nf("heavy", 8000, config=config))
    leg_a = host_a.add_chain("leg-a", [host_a.nf_by_name("fwd")])
    leg_b = host_b.add_chain("leg-b", [host_b.nf_by_name("heavy")])

    flow_a = Flow("tcp", pkt_size=1500, protocol="tcp")
    host_a.install_flow(flow_a, leg_a)
    link = topology.connect(0, 1, latency_ns=10 * USEC)
    host_b.install_flow(link.connect_flow(flow_a), leg_b)

    generator = TrafficGenerator(loop, host_a.nic)
    spec = generator.add(FlowSpec(flow_a, rate_pps=1.0))
    tcp = TCPFlow(loop, spec, rtt_ns=1 * MSEC, max_cwnd=2000.0)

    topology.start()
    generator.start()
    tcp.start()
    loop.run_until(int(duration_s * SEC))
    return {
        "goodput_gbps": leg_b.completed * 1500 * 8 / duration_s / 1e9,
        "lost": flow_a.stats.lost,
        "marks": flow_a.stats.ecn_marks,
        "wire_pkts": link.carried_packets,
        "e2e_p50_us": leg_b.latency_hist.median() / 1e3,
    }


def main() -> None:
    rows = []
    for ecn in (False, True):
        stats = run(ecn)
        rows.append([
            "ECN" if ecn else "drops-only",
            round(stats["goodput_gbps"], 3),
            stats["lost"],
            stats["marks"],
            round(stats["e2e_p50_us"], 1),
        ])
    print(render_table(
        ["signal", "goodput Gbps", "lost pkts", "CE marks", "e2e p50 us"],
        rows, title="TCP through a two-host chain",
    ))
    print("\nECN turns host B's congestion into sender backoff before host")
    print("B's rings overflow - losses vanish across the machine boundary.")


if __name__ == "__main__":
    main()
