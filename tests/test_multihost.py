"""Tests for multi-host service chains and cross-host ECN.

Hosts are joined by :meth:`repro.cluster.topology.ClusterTopology.
connect`, the one cross-host wire.
"""

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.nf import NFProcess
from repro.nfs.cost_models import FixedCost
from repro.platform.packet import Flow
from repro.sim.clock import MSEC, USEC


def two_hosts(loop, config, cost_a=200, cost_b=200, n_hosts=2):
    topology = ClusterTopology(loop, n_hosts, scheduler="BATCH",
                               config=config)
    host_a = topology.hosts[0].manager
    host_b = topology.hosts[1].manager
    nf_a = NFProcess("nf-a", FixedCost(cost_a), config=config)
    nf_b = NFProcess("nf-b", FixedCost(cost_b), config=config)
    host_a.add_nf(nf_a)
    host_b.add_nf(nf_b)
    chain_a = host_a.add_chain("leg-a", [nf_a])
    chain_b = host_b.add_chain("leg-b", [nf_b])
    return topology, chain_a, chain_b


def start(topology):
    for host in topology.hosts:
        host.manager.start()


class TestFlowTwins:
    def test_clone_shares_stats_and_tcp(self):
        flow = Flow("f", pkt_size=256, protocol="tcp")
        flow.tcp = object()
        twin = flow.clone_shared()
        assert twin.flow_id == flow.flow_id
        assert twin.stats is flow.stats
        assert twin.tcp is flow.tcp
        assert twin.chain is None

    def test_twin_loss_counts_aggregate(self):
        flow = Flow("f")
        twin = flow.clone_shared()
        flow.stats.queue_drops += 3
        twin.stats.entry_discards += 2
        assert flow.stats.lost == 5


class TestHostLink:
    def test_packets_cross_the_link(self, loop, default_config):
        topology, chain_a, chain_b = two_hosts(loop, default_config)
        flow_a = Flow("f")
        topology.hosts[0].manager.install_flow(flow_a, chain_a)
        link = topology.connect(0, 1, latency_ns=5 * USEC)
        flow_b = link.connect_flow(flow_a)
        topology.hosts[1].manager.install_flow(flow_b, chain_b)
        start(topology)
        topology.hosts[0].manager.nic.receive(flow_a, 100, 0)
        loop.run_until(50 * MSEC)
        assert chain_a.completed == 100
        assert link.carried_packets == 100
        assert chain_b.completed == 100
        # The hand-off at host A's exit is not a delivery; shared stats
        # count each packet once, at the last leg.
        assert flow_a.stats.delivered == 100

    def test_unmapped_flows_stay_local(self, loop, default_config):
        topology, chain_a, chain_b = two_hosts(loop, default_config)
        flow_a = Flow("f")
        topology.hosts[0].manager.install_flow(flow_a, chain_a)
        link = topology.connect(0, 1)
        start(topology)
        topology.hosts[0].manager.nic.receive(flow_a, 50, 0)
        loop.run_until(50 * MSEC)
        assert chain_a.completed == 50
        assert link.carried_packets == 0
        assert chain_b.completed == 0

    def test_link_latency_delays_arrival(self, loop, default_config):
        topology, chain_a, chain_b = two_hosts(loop, default_config)
        flow_a = Flow("f")
        topology.hosts[0].manager.install_flow(flow_a, chain_a)
        link = topology.connect(0, 1, latency_ns=5 * MSEC)
        topology.hosts[1].manager.install_flow(link.connect_flow(flow_a),
                                              chain_b)
        start(topology)
        topology.hosts[0].manager.nic.receive(flow_a, 10, 0)
        loop.run_until(4 * MSEC)
        assert chain_b.completed == 0  # still on the wire
        loop.run_until(30 * MSEC)
        assert chain_b.completed == 10

    def test_origin_preserved_end_to_end(self, loop, default_config):
        topology, chain_a, chain_b = two_hosts(loop, default_config)
        flow_a = Flow("f")
        topology.hosts[0].manager.install_flow(flow_a, chain_a)
        link = topology.connect(0, 1, latency_ns=2 * MSEC)
        topology.hosts[1].manager.install_flow(link.connect_flow(flow_a),
                                              chain_b)
        start(topology)
        topology.hosts[0].manager.nic.receive(flow_a, 10, 0)
        loop.run_until(50 * MSEC)
        # End-to-end latency includes the 2 ms wire.
        assert chain_b.latency_hist.mean >= 2 * MSEC

    def test_same_host_rejected(self, loop, default_config):
        topology, _ca, _cb = two_hosts(loop, default_config)
        with pytest.raises(ValueError, match="distinct hosts"):
            topology.connect(0, 0)
        assert topology.hosts[0].manager.nic.on_transmit is None

    def test_double_tap_rejected(self, loop, default_config):
        topology, *_ = two_hosts(loop, default_config, n_hosts=3)
        topology.connect(0, 1)
        links = list(topology.links)
        with pytest.raises(ValueError, match="egress tap"):
            topology.connect(0, 2)
        assert topology.links == links


class TestCrossHostECN:
    def test_ecn_cuts_losses_across_hosts(self):
        from repro.experiments.cross_host_ecn import run_cross_host

        results = run_cross_host(duration_s=2.0)
        got = {ecn: (r.goodput_gbps, r.lost_packets,
                     r.marked_packets, r.carried_packets)
               for ecn, r in results.items()}
        assert got == {
            False: (2.958342, 8231, 0, 503774),
            True: (2.361528, 617, 3374, 394212),
        }

    @pytest.mark.parametrize("ecn", [False, True])
    def test_sanitizer_clean(self, ecn):
        from repro.check.sanitizer import Sanitizer
        from repro.experiments.common import RunContext
        from repro.experiments.cross_host_ecn import run_case

        sanitizer = Sanitizer(per_tick=True)
        with RunContext(sanitizer=sanitizer) as ctx:
            run_case(ecn, duration_s=0.05)
        assert ctx.attached["sanitizer"] == 1
        assert sanitizer.violations == []

    def test_formatter(self):
        from repro.experiments.cross_host_ecn import (
            format_cross_host, run_cross_host)

        out = format_cross_host(run_cross_host(duration_s=1.0))
        assert "Cross-host" in out
