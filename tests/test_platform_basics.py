"""Tests for packets, chains, flow table, NIC and config."""

import dataclasses

import pytest

from repro.nfs.cost_models import FixedCost
from repro.core.nf import NFProcess
from repro.platform.chain import ServiceChain
from repro.platform.config import PlatformConfig, default_platform_config
from repro.platform.flow_table import FlowTable
from repro.platform.nic import NIC, WIRE_OVERHEAD_BYTES, line_rate_pps
from repro.platform.packet import Flow, PacketSegment


def make_nf(name, config):
    return NFProcess(name, FixedCost(100), config=config)


class TestPacketSegment:
    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            PacketSegment(Flow("f"), 0)

    def test_flow_validation(self):
        with pytest.raises(ValueError):
            Flow("f", pkt_size=0)

    def test_tcp_flow_is_responsive(self):
        assert Flow("f", protocol="tcp").responsive
        assert not Flow("f", protocol="udp").responsive

    def test_flow_stats_lost(self):
        f = Flow("f")
        f.stats.entry_discards = 3
        f.stats.queue_drops = 4
        assert f.stats.lost == 7


class TestServiceChain:
    def test_positions_and_navigation(self, config):
        nfs = [make_nf(f"nf{i}", config) for i in (1, 2, 3)]
        chain = ServiceChain("c", nfs)
        assert chain.position_of(nfs[0]) == 0
        assert chain.next_nf(nfs[0]) is nfs[1]
        assert chain.next_nf(nfs[2]) is None
        assert chain.upstream_of(nfs[2]) == nfs[:2]
        assert chain.first() is nfs[0] and chain.last() is nfs[2]
        assert len(chain) == 3

    def test_nf_learns_membership(self, config):
        nfs = [make_nf(f"nf{i}", config) for i in (1, 2)]
        chain = ServiceChain("c", nfs)
        assert nfs[1].position_in(chain) == 1
        assert chain in nfs[0].chains

    def test_shared_nf_across_chains(self, config):
        """Figure 8: the same instance at different positions."""
        shared = make_nf("shared", config)
        a = make_nf("a", config)
        b = make_nf("b", config)
        c1 = ServiceChain("c1", [shared, a])
        c2 = ServiceChain("c2", [b, shared])
        assert shared.position_in(c1) == 0
        assert shared.position_in(c2) == 1
        assert len(shared.chains) == 2

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            ServiceChain("c", [])


class TestFlowTable:
    def test_install_and_lookup(self, config):
        table = FlowTable()
        chain = ServiceChain("c", [make_nf("nf", config)])
        f = Flow("f")
        table.install(f, chain)
        assert table.lookup(f) is chain
        assert f.chain is chain
        assert f in table
        assert len(table) == 1

    def test_miss(self):
        table = FlowTable()
        assert table.lookup(Flow("ghost")) is None
        assert table.misses == 1

    def test_remove(self, config):
        table = FlowTable()
        chain = ServiceChain("c", [make_nf("nf", config)])
        f = Flow("f")
        table.install(f, chain)
        table.remove(f)
        assert table.lookup(f) is None
        assert f.chain is None

    def test_reinstall_replaces(self, config):
        table = FlowTable()
        c1 = ServiceChain("c1", [make_nf("nf1", config)])
        c2 = ServiceChain("c2", [make_nf("nf2", config)])
        f = Flow("f")
        table.install(f, c1)
        table.install(f, c2)
        assert table.lookup(f) is c2


class TestNIC:
    def test_line_rate_64b(self):
        # The canonical 14.88 Mpps of 64-byte frames at 10 GbE.
        assert line_rate_pps(64) == pytest.approx(14.88e6, rel=0.001)

    def test_line_rate_1500b(self):
        assert line_rate_pps(1500) == pytest.approx(
            10e9 / ((1500 + WIRE_OVERHEAD_BYTES) * 8))

    def test_invalid_pkt_size(self):
        with pytest.raises(ValueError):
            line_rate_pps(0)

    def test_receive_and_drop(self):
        nic = NIC(rx_capacity=100)
        f = Flow("f")
        assert nic.receive(f, 80, 0) == 80
        assert nic.receive(f, 80, 1) == 20
        assert nic.rx_dropped == 60

    def test_transmit_counters(self):
        nic = NIC()
        nic.transmit(PacketSegment(Flow("f", pkt_size=100), 7))
        assert nic.tx_packets == 7
        assert nic.tx_bytes == 700


class TestConfig:
    def test_paper_defaults(self):
        cfg = PlatformConfig()
        assert cfg.ring_capacity == 4096
        assert cfg.high_watermark == 0.80
        assert cfg.nf_batch_size == 32
        assert cfg.monitor_period_ns == 1_000_000       # 1000 Hz
        assert cfg.weight_update_ns == 10_000_000       # 10 ms
        assert cfg.enable_backpressure and cfg.enable_cgroups

    def test_default_platform_has_features_off(self):
        cfg = default_platform_config()
        assert not cfg.enable_backpressure
        assert not cfg.enable_cgroups
        assert not cfg.enable_ecn

    def test_with_features(self):
        cfg = PlatformConfig().with_features(cgroups=True, backpressure=False)
        assert cfg.enable_cgroups and not cfg.enable_backpressure
        assert not cfg.enable_relinquish  # relinquish rides on backpressure

    def test_overrides(self):
        cfg = default_platform_config(ring_capacity=128)
        assert cfg.ring_capacity == 128
