"""Smoke + shape tests for every experiment module (short durations).

Full-length reproductions live in ``benchmarks/``; here each experiment
is exercised end-to-end at reduced duration and its key qualitative shape
is asserted.
"""

import pytest

from repro.experiments import ablations, ecn_extension
from repro.experiments import fig01_motivation as fig01
from repro.experiments import fig07_single_core_chain as fig07
from repro.experiments import fig09_shared_chains as fig09
from repro.experiments import fig10_variable_cost as fig10
from repro.experiments import fig11_chain_permutations as fig11
from repro.experiments import fig12_workload_mix as fig12
from repro.experiments import fig13_isolation as fig13
from repro.experiments import fig14_io as fig14
from repro.experiments import fig15_fairness as fig15
from repro.experiments import fig16_chain_length as fig16
from repro.experiments import tab05_multicore_chain as tab05
from repro.experiments import tuning_watermarks as tuning
from repro.experiments.common import FEATURE_SETS, Scenario, \
    feature_config, run_cases

DUR = 0.3  # seconds of simulated time per case


def run_subgrid(module, keep=lambda key: True):
    """Run the cases of ``module.campaign_cases(DUR)`` whose key passes
    ``keep``."""
    cases = [case for case in module.campaign_cases(DUR) if keep(case.key)]
    return run_cases(module.run_case, cases)


class TestCommon:
    def test_feature_sets_cover_paper_variants(self):
        assert set(FEATURE_SETS) == {"Default", "CGroup", "OnlyBKPR",
                                     "NFVnice"}

    def test_feature_config_toggles(self):
        cfg = feature_config("CGroup")
        assert cfg.enable_cgroups and not cfg.enable_backpressure
        cfg = feature_config("OnlyBKPR")
        assert not cfg.enable_cgroups and cfg.enable_backpressure

    def test_unknown_feature_set_rejected(self):
        with pytest.raises(ValueError):
            feature_config("Turbo")

    def test_scenario_requires_rate(self):
        scenario = Scenario()
        scenario.add_nf("nf", 100)
        scenario.add_chain("c", ["nf"])
        with pytest.raises(ValueError):
            scenario.add_flow("f", "c")

    @pytest.mark.parametrize("duration_s",
                             [0, -1.0, float("nan"), float("inf")])
    def test_scenario_rejects_nonpositive_duration(self, duration_s):
        scenario = Scenario()
        scenario.add_nf("nf", 100)
        scenario.add_chain("c", ["nf"])
        scenario.add_flow("f", "c", rate_pps=1e6)
        with pytest.raises(ValueError, match="duration_s"):
            scenario.run(duration_s)

    @pytest.mark.parametrize("slo_us", [0, -1.0, float("nan"),
                                        float("inf")])
    def test_add_slo_class_rejects_bad_budget(self, slo_us):
        with pytest.raises(ValueError, match="slo_us"):
            Scenario().add_slo_class("gold", slo_us)

    def test_unknown_nf_in_chain_rejected(self):
        scenario = Scenario()
        scenario.add_nf("nf", 100)
        with pytest.raises(ValueError, match="chain 'd': unknown NF 'zz'"):
            scenario.add_chain("d", ["nf", "zz"])
        assert "d" not in scenario.manager.chains

    def test_unknown_chain_in_flow_rejected(self):
        scenario = Scenario()
        with pytest.raises(ValueError,
                           match="flow 'f': unknown chain 'zz'"):
            scenario.add_flow("f", "zz", rate_pps=1e6)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_add_flow_rejects_non_finite_rate(self, rate):
        scenario = Scenario()
        scenario.add_nf("nf", 100)
        scenario.add_chain("c", ["nf"])
        with pytest.raises(ValueError, match="rate_pps"):
            scenario.add_flow("f", "c", rate_pps=rate)

    def test_result_accessors(self):
        scenario = Scenario(scheduler="BATCH", features="NFVnice")
        scenario.add_nf("nf", 260)
        scenario.add_chain("c", ["nf"])
        scenario.add_flow("f", "c", rate_pps=1e6)
        res = scenario.run(DUR)
        assert res.chain("c").completed > 0
        assert res.nf("nf").processed > 0
        assert 0 <= res.core_utilization[0] <= 1.0
        assert res.scheduler == "BATCH" and res.features == "NFVnice"


class TestFig01:
    def test_normal_equal_split_heterogeneous(self):
        res = fig01.run_case("NORMAL", "heterogeneous", "even",
                             duration_s=DUR)
        shares = [res.nf(f"nf{i}").cpu_share for i in (1, 2, 3)]
        assert max(shares) - min(shares) < 0.12

    def test_rr_starves_light_nf_heterogeneous(self):
        res = fig01.run_case("RR_100MS", "heterogeneous", "even",
                             duration_s=DUR)
        assert res.nf("nf1").cpu_share > 0.8
        assert res.nf("nf3").cpu_share < 0.1

    def test_normal_preempts_far_more_than_batch(self):
        normal = fig01.run_case("NORMAL", "heterogeneous", "even",
                                duration_s=DUR)
        batch = fig01.run_case("BATCH", "heterogeneous", "even",
                               duration_s=DUR)
        nv_normal = sum(normal.nf(f"nf{i}").nvcswch_per_s for i in (1, 2))
        nv_batch = sum(batch.nf(f"nf{i}").nvcswch_per_s for i in (1, 2))
        assert nv_normal > 5 * max(nv_batch, 1)

    def test_formatters(self):
        results = {
            f"{cm}/{lm}/{s}": fig01.run_case(s, cm, lm, duration_s=0.2)
            for cm in ("homogeneous",)
            for lm in ("even",)
            for s in fig01.SCHEDULERS
        }
        # Formatters need the full grid only for the mixes they print.
        table = fig01.format_throughput_table(
            {**results,
             **{k.replace("even", "uneven"): v for k, v in results.items()}},
            "homogeneous")
        assert "Figure 1a" in table


class TestFig07:
    @pytest.fixture(scope="class")
    def grid(self):
        return run_subgrid(fig07, lambda key: key[0] == "BATCH")

    def test_nfvnice_beats_default(self, grid):
        assert grid[("BATCH", "NFVnice")].total_throughput_pps > \
            grid[("BATCH", "Default")].total_throughput_pps

    def test_table3_shape(self, grid):
        default = grid[("BATCH", "Default")]
        nfvnice = grid[("BATCH", "NFVnice")]
        for nf in ("nf1", "nf2"):
            assert nfvnice.nf(nf).wasted_pps < default.nf(nf).wasted_pps / 50

    def test_formatters(self, grid):
        assert "Figure 7" in fig07.format_figure7(grid)
        assert "Table 3" in fig07.format_table3(grid)
        assert "Table 4" in fig07.format_table4(grid)


class TestTab05:
    def test_cpu_savings(self):
        results = run_subgrid(tab05)
        d, n = results["Default"], results["NFVnice"]
        assert n.core_utilization[0] < 0.4 * d.core_utilization[0]
        assert n.total_throughput_pps == pytest.approx(
            d.total_throughput_pps, rel=0.15)
        assert "Table 5" in tab05.format_table5(results)


class TestFig09:
    def test_innocent_chain_gains(self):
        results = run_subgrid(fig09)
        d, n = results["Default"], results["NFVnice"]
        assert n.chain("chain1").throughput_pps > \
            1.2 * d.chain("chain1").throughput_pps
        # The bottlenecked chain keeps (roughly) its bottleneck rate.
        assert n.chain("chain2").throughput_pps > \
            0.7 * d.chain("chain2").throughput_pps
        assert "Table 6" in fig09.format_table6(results)


class TestFig10:
    def test_backpressure_resilient_to_variable_cost(self):
        grid = run_subgrid(fig10, lambda key: key[0] == "BATCH")
        assert grid[("BATCH", "OnlyBKPR")].total_throughput_pps > \
            grid[("BATCH", "Default")].total_throughput_pps
        assert "Figure 10" in fig10.format_figure10(grid)


class TestFig11:
    def test_heavy_first_rr100_collapse(self):
        res = fig11.run_case(("High", "Med", "Low"), "RR_100MS", "Default",
                             duration_s=DUR)
        assert res.total_throughput_pps < 60_000

    def test_nfvnice_consistent_across_orders(self):
        grid = run_subgrid(
            fig11, lambda key: key[0] in ("Low-Med-High", "High-Med-Low")
            and key[1] == "BATCH")
        lo = grid[("Low-Med-High", "BATCH", "NFVnice")].total_throughput_pps
        hi = grid[("High-Med-Low", "BATCH", "NFVnice")].total_throughput_pps
        assert lo == pytest.approx(hi, rel=0.15)
        assert "Figure 11" in fig11.format_figure11(grid)


class TestFig12:
    def test_nfvnice_robust_to_flow_mix(self):
        grid = run_subgrid(fig12,
                           lambda key: key[0] in (1, 3) and key[1] == "BATCH")
        nfv1 = grid[(1, "BATCH", "NFVnice")].total_throughput_pps
        nfv3 = grid[(3, "BATCH", "NFVnice")].total_throughput_pps
        assert nfv3 > 0.6 * nfv1
        assert "Figure 12" in fig12.format_figure12(grid)


class TestFig13:
    def test_isolation_shape_short(self):
        """Compressed version of the isolation run (still >= UDP window)."""
        import repro.experiments.fig13_isolation as mod

        results = {
            s: mod.run_case(s, duration_s=mod.UDP_OFF_S + 2)
            for s in ("Default", "NFVnice")
        }
        d, n = results["Default"], results["NFVnice"]
        assert d.tcp_before > 3.0
        assert d.tcp_during < 0.3          # collapse
        assert n.tcp_during > 0.5 * n.tcp_before  # protected
        assert "Figure 13" in mod.format_figure13(results)


class TestFig14:
    def test_async_io_wins(self):
        d = fig14.run_case(256, "Default", duration_s=DUR)
        n = fig14.run_case(256, "NFVnice", duration_s=DUR)
        d_bps = sum(c.throughput_bps for c in d.chains.values())
        n_bps = sum(c.throughput_bps for c in n.chains.values())
        assert n_bps > 5 * d_bps


class TestFig15:
    def test_dynamic_tuning_tracks_cost_step(self):
        res = fig15.run_dynamic_tuning("NFVnice")
        s1_initial = res.phase_shares["initial"][0]
        s1_stepped = res.phase_shares["stepped"][0]
        assert s1_initial < 0.35
        assert 0.4 < s1_stepped < 0.6

    def test_fairness_direction(self):
        d = fig15.run_diversity_level(4, "Default", duration_s=DUR)
        n = fig15.run_diversity_level(4, "NFVnice", duration_s=DUR)
        assert fig15.fairness_of(n) > fig15.fairness_of(d)
        assert fig15.fairness_of(n) > 0.95


class TestFig16:
    def test_longer_chains_still_flow(self):
        res = fig16.run_case(6, "SC", "NFVnice", duration_s=DUR)
        assert res.total_throughput_pps > 100_000

    def test_mc_beats_sc(self):
        sc = fig16.run_case(6, "SC", "NFVnice", duration_s=DUR)
        mc = fig16.run_case(6, "MC", "NFVnice", duration_s=DUR)
        assert mc.total_throughput_pps > sc.total_throughput_pps


class TestTuning:
    def test_tiny_margin_worse_than_paper_choice(self):
        tiny = tuning.run_point(0.80, 0.79, duration_s=DUR)
        paper = tuning.run_point(0.80, 0.60, duration_s=DUR)
        assert paper.total_throughput_pps >= 0.95 * tiny.total_throughput_pps

    def test_formatters(self):
        high = {0.8: tuning.run_point(0.8, 0.6, duration_s=0.2)}
        margin = {0.2: tuning.run_point(0.8, 0.6, duration_s=0.2)}
        out = tuning.format_sweeps(high, margin)
        assert "HIGH sweep" in out


class TestAblations:
    def test_selectivity_protects_innocent_chain(self):
        sel = ablations.run_selectivity(True, duration_s=0.5)
        agn = ablations.run_selectivity(False, duration_s=0.5)
        assert sel.chain("chain1").throughput_pps > \
            3 * max(agn.chain("chain1").throughput_pps, 1)

    def test_estimator_runs(self):
        res = ablations.run_estimator("mean", duration_s=0.2)
        assert res.total_throughput_pps > 0


class TestECNExtension:
    def test_ecn_eliminates_drops(self):
        results = ecn_extension.run_ecn(duration_s=2.0)
        assert results[True].lost_packets < results[False].lost_packets / 5
        assert results[True].marked_packets > 0
        assert results[True].goodput_gbps > 0.3 * results[False].goodput_gbps
