"""Tests for the NF process model (libnf's run loop)."""

import math

import pytest

from repro.core.nf import NFProcess
from repro.nfs.cost_models import FixedCost
from repro.obs.latency import FlowLatencyTracker
from repro.obs.observer import Observer
from repro.platform.packet import Flow
from repro.sched.base import ExecOutcome
from repro.sim.clock import SEC, USEC


def make_nf(config, cycles=260, name="nf", **kw):
    return NFProcess(name, FixedCost(cycles), config=config, **kw)


NS_PER_PKT = 100  # 260 cycles at 2.6 GHz


class TestEstimate:
    def test_empty_queue_estimates_zero(self, config):
        nf = make_nf(config)
        assert nf.estimate_run_ns(0) == 0.0

    def test_estimate_matches_queue_cost(self, config):
        nf = make_nf(config)
        nf.rx_ring.enqueue(Flow("f"), 50, 0)
        assert nf.estimate_run_ns(0) == pytest.approx(50 * NS_PER_PKT)

    def test_estimate_bounded_by_tx_space(self, config):
        nf = make_nf(config)
        nf.rx_ring.enqueue(Flow("f"), 50, 0)
        nf.tx_ring.enqueue(Flow("g"), config.ring_capacity - 10, 0)
        assert nf.estimate_run_ns(0) == pytest.approx(10 * NS_PER_PKT)

    def test_estimate_zero_when_tx_full(self, config):
        nf = make_nf(config)
        nf.rx_ring.enqueue(Flow("f"), 5, 0)
        nf.tx_ring.enqueue(Flow("g"), config.ring_capacity, 0)
        assert nf.estimate_run_ns(0) == 0.0

    def test_estimate_zero_when_relinquish_flagged(self, config):
        nf = make_nf(config)
        nf.rx_ring.enqueue(Flow("f"), 5, 0)
        nf.relinquish = True
        assert nf.estimate_run_ns(0) == 0.0

    def test_busy_loop_estimates_infinite(self, config):
        nf = make_nf(config, busy_loop=True)
        assert nf.estimate_run_ns(0) == math.inf


class TestExecute:
    def test_processes_exact_packet_count(self, config):
        nf = make_nf(config)
        nf.rx_ring.enqueue(Flow("f"), 100, 0)
        result = nf.execute(0, 10 * NS_PER_PKT)
        assert nf.processed_packets == 10
        assert len(nf.tx_ring) == 10
        assert len(nf.rx_ring) == 90
        assert result.outcome is ExecOutcome.USED_ALL
        assert result.used_ns == pytest.approx(10 * NS_PER_PKT)

    def test_blocks_when_queue_drained(self, config):
        nf = make_nf(config)
        nf.rx_ring.enqueue(Flow("f"), 10, 0)
        result = nf.execute(0, SEC)
        assert result.outcome is ExecOutcome.RAN_OUT
        assert nf.processed_packets == 10
        assert result.used_ns == pytest.approx(10 * NS_PER_PKT)

    def test_blocks_when_tx_fills(self, config):
        nf = make_nf(config)
        nf.rx_ring.enqueue(Flow("f"), config.ring_capacity, 0)
        nf.tx_ring.enqueue(Flow("g"), config.ring_capacity - 20, 0)
        result = nf.execute(0, SEC)
        assert result.outcome is ExecOutcome.TX_BLOCKED
        assert nf.processed_packets == 20

    def test_flag_yield_between_batches(self, config):
        nf = make_nf(config)
        nf.rx_ring.enqueue(Flow("f"), 100, 0)
        nf.relinquish = True
        result = nf.execute(0, SEC)
        assert result.outcome is ExecOutcome.FLAG_YIELD
        assert nf.processed_packets == 0

    def test_cycle_credit_carries_partial_packet(self, config):
        """Half a packet's worth of grant is banked, not lost."""
        nf = make_nf(config)
        nf.rx_ring.enqueue(Flow("f"), 10, 0)
        r1 = nf.execute(0, NS_PER_PKT // 2)
        assert nf.processed_packets == 0
        assert r1.outcome is ExecOutcome.USED_ALL
        nf.execute(0, NS_PER_PKT // 2)
        assert nf.processed_packets == 1

    def test_batch_limit_respected_per_iteration(self, config):
        """Throughput still exceeds one batch per execute; the limit is per
        inner loop iteration, not per grant."""
        nf = make_nf(config)
        nf.rx_ring.enqueue(Flow("f"), 200, 0)
        nf.execute(0, 200 * NS_PER_PKT)
        assert nf.processed_packets == 200

    def test_busy_loop_consumes_grant_without_output(self, config):
        nf = make_nf(config, busy_loop=True)
        result = nf.execute(0, 1000.0)
        assert result.used_ns == 1000.0
        assert result.outcome is ExecOutcome.USED_ALL
        assert nf.processed_packets == 0


class TestAccounting:
    def test_latency_histogram_records_queue_wait(self, config):
        nf = make_nf(config)
        tracker = FlowLatencyTracker()
        nf.obs = Observer(latency=tracker)
        nf.rx_ring.enqueue(Flow("f"), 1, now_ns=100)
        nf.execute(600, SEC)
        wait = tracker.to_dict()["hops"][nf.name]["wait"]
        assert wait["count"] == 1
        assert wait["total"] == 500

    def test_service_time_sampling(self, config):
        nf = make_nf(config)
        # Enough samples past the warm-up discard (spread over time so the
        # 1 ms sampling gate admits them).
        for i in range(15):
            nf.rx_ring.enqueue(Flow("f"), 32, i)
            nf.execute(i * 2 * config.service_sample_period_ns, SEC)
        est = nf.service_time_ns(15 * 2 * config.service_sample_period_ns)
        assert est == pytest.approx(NS_PER_PKT, rel=0.05)

    def test_service_time_falls_back_to_model_mean(self, config):
        nf = make_nf(config, cycles=520)
        assert nf.service_time_ns(0) == pytest.approx(200.0)

    def test_offered_arrivals_includes_drops(self, config):
        nf = make_nf(config)
        nf.rx_ring.enqueue(Flow("f"), config.ring_capacity + 50, 0)
        assert nf.offered_arrivals == config.ring_capacity + 50


class TestOverheadWrapping:
    def test_fixed_cost_folds_overhead(self):
        from repro.platform.config import PlatformConfig

        cfg = PlatformConfig(nf_overhead_cycles=140.0)
        nf = NFProcess("nf", FixedCost(120), config=cfg)
        assert nf.cost_model.mean_cycles == 260

    def test_busy_loop_unwrapped(self):
        from repro.platform.config import PlatformConfig

        cfg = PlatformConfig(nf_overhead_cycles=140.0)
        nf = NFProcess("nf", FixedCost(120), config=cfg, busy_loop=True)
        assert nf.cost_model.mean_cycles == 120
