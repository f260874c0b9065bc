"""Tests for declarative topology construction (Flow Rule Installer)."""

import json

import pytest

from repro.experiments.common import Scenario
from repro.platform.orchestrator import (
    TopologyError,
    build_topology,
    load_topology,
)
from repro.sim.clock import SEC


def minimal_spec():
    return {
        "scheduler": "BATCH",
        "nfs": [
            {"name": "fw", "cycles": 550, "core": 0},
            {"name": "nat", "cycles": 270, "core": 0},
        ],
        "chains": [{"name": "edge", "nfs": ["fw", "nat"]}],
        "flows": [{"id": "f0", "chain": "edge", "rate_pps": 1e6}],
    }


class TestBuild:
    def test_builds_and_runs(self):
        scenario = build_topology(minimal_spec())
        result = scenario.run(0.2)
        assert result.chains["edge"].completed > 100_000
        [spec] = scenario.generator.specs
        assert spec.flow.flow_id == "f0" and spec.flow.stats.offered > 0

    def test_nf_attributes(self):
        spec = minimal_spec()
        spec["nfs"][0]["priority"] = 2.5
        scenario = build_topology(spec)
        nf = scenario.manager.nf_by_name("fw")
        assert nf.priority == 2.5
        # FixedCost folded with framework overhead.
        assert nf.cost_model.mean_cycles == pytest.approx(
            550 + scenario.manager.config.nf_overhead_cycles)

    def test_stochastic_cost_spec(self):
        spec = minimal_spec()
        spec["nfs"][1] = {"name": "nat", "core": 0,
                          "cost": {"kind": "choice",
                                   "values": [120, 270, 550]}}
        scenario = build_topology(spec)
        nf = scenario.manager.nf_by_name("nat")
        assert nf.cost_model.mean_cycles == pytest.approx(
            (120 + 270 + 550) / 3 + scenario.manager.config.nf_overhead_cycles)

    def test_all_cost_kinds(self):
        for cost in (
            {"kind": "normal", "mean": 500, "std": 50},
            {"kind": "uniform", "low": 100, "high": 200},
            {"kind": "exponential", "mean": 800},
        ):
            spec = minimal_spec()
            spec["nfs"][0] = {"name": "fw", "core": 0, "cost": cost}
            build_topology(spec)

    def test_line_rate_fraction_flow(self):
        spec = minimal_spec()
        spec["flows"][0] = {"id": "f0", "chain": "edge",
                            "line_rate_fraction": 0.5}
        scenario = build_topology(spec)
        assert scenario.generator.specs[0].rate_pps == pytest.approx(
            14.88e6 / 2, rel=0.01)

    def test_flow_window(self):
        spec = minimal_spec()
        spec["flows"][0]["start_s"] = 1.0
        spec["flows"][0]["stop_s"] = 2.0
        scenario = build_topology(spec)
        fs = scenario.generator.specs[0]
        assert fs.start_ns == SEC and fs.stop_ns == 2 * SEC

    def test_deterministic_given_seed(self):
        spec = minimal_spec()
        spec["nfs"][1] = {"name": "nat", "core": 0,
                          "cost": {"kind": "exponential", "mean": 300}}
        r1 = build_topology(spec, seed=3).run(0.1)
        r2 = build_topology(spec, seed=3).run(0.1)
        assert r1.chains["edge"].completed == r2.chains["edge"].completed


class TestValidation:
    def test_not_a_dict(self):
        with pytest.raises(TopologyError):
            build_topology([])

    def test_no_nfs(self):
        with pytest.raises(TopologyError):
            build_topology({"nfs": []})

    def test_nf_without_name(self):
        with pytest.raises(TopologyError):
            build_topology({"nfs": [{"cycles": 100}]})

    def test_nf_without_cost(self):
        with pytest.raises(TopologyError):
            build_topology({"nfs": [{"name": "x"}]})

    def test_unknown_cost_kind(self):
        with pytest.raises(TopologyError):
            build_topology({"nfs": [{"name": "x",
                                     "cost": {"kind": "quantum"}}]})

    def test_chain_references_unknown_nf(self):
        spec = minimal_spec()
        spec["chains"][0]["nfs"] = ["fw", "ghost"]
        with pytest.raises(TopologyError):
            build_topology(spec)

    def test_flow_references_unknown_chain(self):
        spec = minimal_spec()
        spec["flows"][0]["chain"] = "ghost"
        with pytest.raises(TopologyError):
            build_topology(spec)

    def test_flow_without_rate(self):
        spec = minimal_spec()
        del spec["flows"][0]["rate_pps"]
        with pytest.raises(TopologyError):
            build_topology(spec)


def test_load_topology_json(tmp_path):
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(minimal_spec()))
    scenario = load_topology(path)
    assert isinstance(scenario, Scenario)
    assert "edge" in scenario.manager.chains
