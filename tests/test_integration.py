"""End-to-end integration tests and system-level invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import Scenario, build_linear_chain
from repro.sim.clock import SEC


def packet_accounting(scenario, flows):
    """Every offered packet is delivered, discarded at entry, dropped at a
    ring (NF or NIC), or still in flight inside the system."""
    mgr = scenario.manager
    offered = sum(f.stats.offered for f in flows)
    delivered = sum(f.stats.delivered for f in flows)
    entry = sum(f.stats.entry_discards for f in flows)
    ring_drops = sum(f.stats.queue_drops for f in flows)
    in_flight = len(mgr.nic.rx_ring)
    for nf in mgr.nfs:
        in_flight += len(nf.rx_ring) + len(nf.tx_ring)
    return offered, delivered + entry + ring_drops + in_flight


class TestPacketConservation:
    @pytest.mark.parametrize("features", ["Default", "NFVnice"])
    @pytest.mark.parametrize("scheduler", ["NORMAL", "BATCH", "RR_1MS"])
    def test_conservation_single_chain(self, scheduler, features):
        scenario = Scenario(scheduler=scheduler, features=features)
        build_linear_chain(scenario, (120, 270, 550), core=0)
        flow = scenario.add_flow("f", "chain", line_rate_fraction=1.0)
        scenario.run(0.3)
        offered, accounted = packet_accounting(scenario, [flow])
        assert offered == accounted
        assert offered > 0

    def test_conservation_shared_chains_multicore(self):
        scenario = Scenario(scheduler="NORMAL", features="NFVnice",
                            num_rx_threads=2)
        for core_id, (name, cost) in enumerate(
                [("nf1", 270), ("nf2", 120), ("nf3", 4500), ("nf4", 300)]):
            scenario.add_nf(name, cost, core=core_id)
        scenario.add_chain("c1", ["nf1", "nf2", "nf4"])
        scenario.add_chain("c2", ["nf1", "nf3", "nf4"])
        f1 = scenario.add_flow("f1", "c1", line_rate_fraction=0.5)
        f2 = scenario.add_flow("f2", "c2", line_rate_fraction=0.5)
        scenario.run(0.3)
        offered, accounted = packet_accounting(scenario, [f1, f2])
        assert offered == accounted

    @given(costs=st.lists(st.sampled_from([120, 270, 550, 2200]),
                          min_size=1, max_size=5),
           fraction=st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=10, deadline=None)
    def test_conservation_random_chains(self, costs, fraction):
        scenario = Scenario(scheduler="BATCH", features="NFVnice")
        build_linear_chain(scenario, costs, core=0)
        flow = scenario.add_flow("f", "chain", line_rate_fraction=fraction)
        scenario.run(0.1)
        offered, accounted = packet_accounting(scenario, [flow])
        assert offered == accounted


class TestSteadyStateProperties:
    def test_underload_is_lossless(self):
        """Offered load far below capacity: every packet delivered."""
        scenario = Scenario(scheduler="BATCH", features="NFVnice")
        build_linear_chain(scenario, (120, 270), core=0)
        flow = scenario.add_flow("f", "chain", rate_pps=100_000.0)
        result = scenario.run(0.5)
        # Allow the last tick's packets to still be in flight.
        assert flow.stats.delivered >= flow.stats.offered - 500
        assert flow.stats.lost == 0
        assert result.total_wasted_pps == 0

    def test_throughput_bounded_by_bottleneck(self):
        """No system variant can beat the chain's arithmetic capacity."""
        for features in ("Default", "NFVnice"):
            scenario = Scenario(scheduler="BATCH", features=features)
            build_linear_chain(scenario, (120, 270, 550), core=0)
            scenario.add_flow("f", "chain", line_rate_fraction=1.0)
            result = scenario.run(0.3)
            total_cost = sum(
                nf.cost_model.mean_cycles for nf in scenario.manager.nfs)
            ideal_pps = scenario.config.cpu_freq_hz / total_cost
            assert result.total_throughput_pps <= ideal_pps * 1.02

    def test_nfvnice_near_ideal_on_shared_core(self):
        scenario = Scenario(scheduler="BATCH", features="NFVnice")
        build_linear_chain(scenario, (120, 270, 550), core=0)
        scenario.add_flow("f", "chain", line_rate_fraction=1.0)
        result = scenario.run(0.5)
        total_cost = sum(
            nf.cost_model.mean_cycles for nf in scenario.manager.nfs)
        ideal_pps = scenario.config.cpu_freq_hz / total_cost
        assert result.total_throughput_pps >= 0.85 * ideal_pps

    def test_deterministic_across_runs(self):
        """Same seed, same configuration: bit-identical results."""
        def run():
            scenario = Scenario(scheduler="NORMAL", features="NFVnice",
                                seed=11)
            build_linear_chain(scenario, (120, 550), core=0)
            scenario.add_flow("f", "chain", line_rate_fraction=1.0)
            return scenario.run(0.2)

        r1, r2 = run(), run()
        assert r1.total_throughput_pps == r2.total_throughput_pps
        assert r1.total_wasted_pps == r2.total_wasted_pps
        assert r1.nf("nf1").nvcswch_per_s == r2.nf("nf1").nvcswch_per_s
