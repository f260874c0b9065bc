"""Tests for the NUMA model and end-to-end latency accounting."""

import pytest

from repro.experiments.common import Scenario, build_linear_chain
from repro.platform.packet import Flow, PacketSegment
from repro.platform.ring import PacketRing


class TestOriginTimestamps:
    def test_segment_origin_defaults_to_enqueue(self):
        seg = PacketSegment(Flow("f"), 5, enqueue_ns=100)
        assert seg.origin_ns == 100

    def test_origin_survives_split(self):
        ring = PacketRing(capacity=64)
        ring.enqueue(Flow("f"), 10, now_ns=500, origin_ns=42)
        head = ring.dequeue(4)[0]     # partial take splits the segment
        assert head.origin_ns == ring.peek_head().origin_ns == 42

    def test_ring_preserves_origin_across_hops(self):
        r1, r2 = PacketRing(capacity=64), PacketRing(capacity=64)
        f = Flow("f")
        r1.enqueue(f, 8, now_ns=10)
        seg = r1.dequeue(8)[0]
        r2.enqueue(seg.flow, seg.count, now_ns=500, origin_ns=seg.origin_ns)
        out = r2.dequeue(8)[0]
        assert out.origin_ns == 10
        assert out.enqueue_ns == 500

    def test_different_origins_do_not_merge(self):
        ring = PacketRing(capacity=64)
        f = Flow("f")
        ring.enqueue(f, 4, now_ns=100, origin_ns=1)
        ring.enqueue(f, 4, now_ns=100, origin_ns=2)
        segs = ring.dequeue(8)
        assert len(segs) == 2
        assert [s.origin_ns for s in segs] == [1, 2]


class TestEndToEndLatency:
    def test_chain_latency_recorded(self):
        scenario = Scenario(scheduler="BATCH", features="NFVnice")
        build_linear_chain(scenario, (120, 270), core=0)
        scenario.add_flow("f", "chain", rate_pps=500_000.0)
        result = scenario.run(0.3)
        chain = scenario.manager.chains["chain"]
        assert chain.latency_hist.count == chain.completed
        assert result.chain("chain").latency_p50_us > 0
        assert result.chain("chain").latency_p99_us >= \
            result.chain("chain").latency_p50_us

    def test_underloaded_latency_is_small(self):
        """At 3% load, end-to-end latency is dominated by poll periods —
        well under a millisecond."""
        scenario = Scenario(scheduler="BATCH", features="NFVnice")
        build_linear_chain(scenario, (120, 270), core=0)
        scenario.add_flow("f", "chain", rate_pps=200_000.0)
        result = scenario.run(0.3)
        assert result.chain("chain").latency_p50_us < 1000

    def test_overload_latency_reflects_queueing(self):
        under = Scenario(scheduler="BATCH", features="Default")
        build_linear_chain(under, (120, 270), core=0)
        under.add_flow("f", "chain", rate_pps=200_000.0)
        low = under.run(0.3).chain("chain").latency_p50_us

        over = Scenario(scheduler="BATCH", features="Default")
        build_linear_chain(over, (120, 2700), core=0)
        over.add_flow("f", "chain", line_rate_fraction=1.0)
        high = over.run(0.3).chain("chain").latency_p50_us
        assert high > 10 * low


class TestNUMA:
    def test_socket_derivation(self):
        scenario = Scenario(scheduler="NORMAL", features="NFVnice")
        mgr = scenario.manager
        assert mgr.core(0).socket == 0
        assert mgr.core(27).socket == 0
        assert mgr.core(28).socket == 1

    def test_cross_socket_hop_charges_penalty(self):
        scenario = Scenario(scheduler="NORMAL", features="NFVnice")
        build_linear_chain(scenario, (500, 500), core=(0, 28))
        scenario.add_flow("f", "chain", rate_pps=1e5)
        scenario.manager.start()
        nf1 = scenario.manager.nf_by_name("nf1")
        nf2 = scenario.manager.nf_by_name("nf2")
        cfg = scenario.config
        base = 500 + cfg.nf_overhead_cycles
        assert nf1.cost_model.mean_cycles == pytest.approx(base)
        assert not nf1.numa_remote_input
        assert nf2.numa_remote_input
        assert nf2.cost_model.mean_cycles == pytest.approx(
            base + cfg.numa_penalty_cycles)

    def test_local_placement_no_penalty(self):
        scenario = Scenario(scheduler="NORMAL", features="NFVnice")
        build_linear_chain(scenario, (500, 500), core=(0, 1))
        scenario.add_flow("f", "chain", rate_pps=1e5)
        scenario.manager.start()
        nf2 = scenario.manager.nf_by_name("nf2")
        assert not nf2.numa_remote_input

    def test_cross_socket_throughput_cost(self):
        from repro.experiments.numa_placement import run_case

        local = run_case("local", duration_s=0.3)
        cross = run_case("cross", duration_s=0.3)
        assert cross.total_throughput_pps < local.total_throughput_pps

    def test_penalty_disabled(self):
        scenario = Scenario(scheduler="NORMAL", features="NFVnice",
                            numa_penalty_cycles=0.0)
        build_linear_chain(scenario, (500, 500), core=(0, 28))
        scenario.add_flow("f", "chain", rate_pps=1e5)
        scenario.manager.start()
        nf2 = scenario.manager.nf_by_name("nf2")
        assert not nf2.numa_remote_input
