"""Smoke tests for the experiment modules (short durations).

These check the shared ``Scenario`` plumbing and that each artifact
renders under its paper title; a title does not depend on the horizon,
so the grids here run short.  The paper's shapes (who wins, by what
factor) are rows of :mod:`repro.experiments.claims`, checked by
``tests/test_claims.py``; ``repro campaign --artifacts DIR`` regenerates
the full tables.
"""

import pytest

from repro.experiments import ablations
from repro.experiments import fig01_motivation as fig01
from repro.experiments import fig07_single_core_chain as fig07
from repro.experiments import fig09_shared_chains as fig09
from repro.experiments import fig10_variable_cost as fig10
from repro.experiments import fig11_chain_permutations as fig11
from repro.experiments import fig12_workload_mix as fig12
from repro.experiments import fig13_isolation as fig13
from repro.experiments import tab05_multicore_chain as tab05
from repro.experiments import tuning_watermarks as tuning
from repro.experiments.common import FEATURE_SETS, Scenario, \
    feature_config, run_cases

DUR = 0.3  # seconds of simulated time per case
TITLE_S = 0.05  # horizon of the artifact-title checks


def run_subgrid(module, keep=lambda key: True):
    """Run the cases of ``module.campaign_cases(TITLE_S)`` whose key passes
    ``keep``."""
    cases = [case for case in module.campaign_cases(TITLE_S)
             if keep(case.key)]
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

    @pytest.mark.parametrize("kwargs,field", [
        ({"core": -1}, "core"),
        ({"core": 1.0}, "core"),
        ({"core": True}, "core"),
        ({"priority": float("nan")}, "priority"),
        ({"priority": -3}, "priority"),
        ({"priority": "2"}, "priority"),
        ({"busy_loop": "false"}, "busy_loop"),
        ({"busy_loop": 0}, "busy_loop"),
    ])
    def test_add_nf_rejects_hostile_fields(self, kwargs, field):
        scenario = Scenario()
        with pytest.raises(ValueError, match=f"^{field} must be"):
            scenario.add_nf("nf", 100, **kwargs)
        assert scenario.manager.nfs == []

    def test_add_flow_rejects_unknown_protocol(self):
        scenario = Scenario()
        scenario.add_nf("nf", 100)
        scenario.add_chain("c", ["nf"])
        with pytest.raises(ValueError,
                           match="protocol must be 'udp' or 'tcp'"):
            scenario.add_flow("f", "c", rate_pps=1e6, protocol="sctp")

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
    def test_formatters(self):
        grid = run_subgrid(fig07, lambda key: key[0] == "BATCH")
        assert "Figure 7" in fig07.format_figure7(grid)
        assert "Table 3" in fig07.format_table3(grid)
        assert "Table 4" in fig07.format_table4(grid)


class TestTab05:
    def test_formatters(self):
        assert "Table 5" in tab05.format_table5(run_subgrid(tab05))


class TestFig09:
    def test_formatters(self):
        assert "Table 6" in fig09.format_table6(run_subgrid(fig09))


class TestFig10:
    def test_formatters(self):
        grid = run_subgrid(fig10, lambda key: key == ("BATCH", "Default"))
        assert "Figure 10" in fig10.format_figure10(grid)


class TestFig11:
    def test_formatters(self):
        grid = run_subgrid(
            fig11, lambda key: key[0] in ("Low-Med-High", "High-Med-Low")
            and key[1] == "BATCH")
        assert "Figure 11" in fig11.format_figure11(grid)


class TestFig12:
    def test_formatters(self):
        grid = run_subgrid(fig12, lambda key: key[:2] == (1, "BATCH"))
        assert "Figure 12" in fig12.format_figure12(grid)


class TestFig13:
    def test_formatters(self):
        results = {s: fig13.run_case(s, duration_s=TITLE_S)
                   for s in ("Default", "NFVnice")}
        assert "Figure 13" in fig13.format_figure13(results)


class TestTuning:
    def test_formatters(self):
        high = {0.8: tuning.run_point(0.8, 0.6, duration_s=0.2)}
        margin = {0.2: tuning.run_point(0.8, 0.6, duration_s=0.2)}
        out = tuning.format_sweeps(high, margin)
        assert "HIGH sweep" in out


class TestAblations:
    def test_estimator_runs(self):
        res = ablations.run_estimator("mean", duration_s=0.2)
        assert res.total_throughput_pps > 0
