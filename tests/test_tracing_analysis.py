"""Tests for the scheduler tracer and the analysis helpers."""

import json

import pytest

from repro.analysis.export import (
    load_result,
    load_result_dict,
    result_from_dict,
    result_to_dict,
    save_result,
    series_from_dict,
)
from repro.experiments.common import Scenario, build_linear_chain
from repro.metrics.timeseries import TimeSeries
from repro.obs.observer import Observer
from repro.sched.tracing import DISPATCH, SWITCH_OUT, WAKE, SchedTracer
from repro.sim.clock import MSEC, SEC


def small_result(features="NFVnice"):
    scenario = Scenario(scheduler="BATCH", features=features)
    build_linear_chain(scenario, (120, 550), core=0)
    scenario.add_flow("f", "chain", line_rate_fraction=0.5)
    return scenario.run(0.2)


class TestSchedTracer:
    def _traced_run(self):
        scenario = Scenario(scheduler="BATCH", features="NFVnice")
        build_linear_chain(scenario, (120, 550), core=0)
        scenario.add_flow("f", "chain", line_rate_fraction=0.5)
        tracer = SchedTracer()
        scenario.manager.attach_observability(Observer(tracers={0: tracer}))
        scenario.run(0.1)
        return tracer, scenario

    def test_records_all_event_kinds(self):
        tracer, _ = self._traced_run()
        kinds = {ev.kind for ev in tracer.events}
        assert {WAKE, DISPATCH, SWITCH_OUT} <= kinds
        assert len(tracer) > 10

    def test_runs_are_well_formed(self):
        tracer, _ = self._traced_run()
        runs = tracer.runs(core_id=0)
        assert runs
        for task, start, end, reason in runs:
            assert end >= start
            assert reason  # every close carries an outcome

    def test_traced_runtime_matches_task_accounting(self):
        tracer, scenario = self._traced_run()
        traced = tracer.runtime_by_task(core_id=0)
        for nf in scenario.manager.nfs:
            if nf.name in traced:
                # Traced wall intervals include context-switch overhead at
                # dispatch; allow a coarse tolerance.
                assert traced[nf.name] == pytest.approx(
                    nf.stats.runtime_ns, rel=0.2)

    def test_timeline_renders(self):
        tracer, _ = self._traced_run()
        art = tracer.render_timeline(0, int(0.1 * SEC), bucket_ns=5 * MSEC)
        lines = art.splitlines()
        assert lines
        for line in lines:
            assert "|" in line

    def test_timeline_validation(self):
        tracer = SchedTracer()
        with pytest.raises(ValueError):
            tracer.render_timeline(10, 10)

    def test_event_cap(self):
        tracer = SchedTracer(max_events=3)
        for i in range(5):
            tracer.record(i, 0, WAKE, "t")
        assert len(tracer) == 3
        assert tracer.dropped == 2

    def test_counts(self):
        tracer = SchedTracer()
        tracer.record(0, 0, WAKE, "a")
        tracer.record(1, 0, WAKE, "a")
        tracer.record(2, 0, DISPATCH, "a")
        assert tracer.counts() == {("a", WAKE): 2, ("a", DISPATCH): 1}

    def test_mismatched_switch_out_closes_run(self):
        """A SWITCH_OUT naming a different task must not silently discard
        the open run — it closes it flagged as a mismatch."""
        tracer = SchedTracer()
        tracer.record(0, 0, DISPATCH, "a")
        tracer.record(10, 0, SWITCH_OUT, "b")
        runs = tracer.runs(core_id=0)
        assert runs == [("a", 0, 10, "mismatch:b")]
        assert tracer.mismatched_runs(core_id=0) == 1
        # The flagged interval still counts toward the task's runtime.
        assert tracer.runtime_by_task(core_id=0) == {"a": 10}

    def test_double_dispatch_closes_run(self):
        tracer = SchedTracer()
        tracer.record(0, 0, DISPATCH, "a")
        tracer.record(5, 0, DISPATCH, "b")
        tracer.record(9, 0, SWITCH_OUT, "b")
        assert tracer.runs(core_id=0) == [
            ("a", 0, 5, "mismatch:b"), ("b", 5, 9, "")]

    def test_well_formed_trace_has_no_mismatches(self):
        tracer, _ = self._traced_run()
        assert tracer.mismatched_runs() == 0

    def test_dropped_events_surface_in_timeline(self):
        tracer = SchedTracer(max_events=2)
        tracer.record(0, 0, DISPATCH, "a")
        tracer.record(5, 0, SWITCH_OUT, "a")
        tracer.record(6, 0, DISPATCH, "a")
        art = tracer.render_timeline(0, 10, bucket_ns=5)
        assert "1 events dropped" in art


class TestMultiCoreTracing:
    def _two_core_run(self):
        scenario = Scenario(scheduler="BATCH", features="NFVnice")
        build_linear_chain(scenario, (120, 300, 550), core=(0, 1, 1))
        scenario.add_flow("f", "chain", line_rate_fraction=0.5)
        tracers = {core_id: SchedTracer() for core_id in (0, 1)}
        scenario.manager.attach_observability(Observer(tracers=tracers))
        scenario.run(0.1)
        return tracers, scenario

    def test_each_core_traces_only_its_tasks(self):
        tracers, _ = self._two_core_run()
        assert {ev.task for ev in tracers[0].events} == {"nf1"}
        assert {ev.task for ev in tracers[1].events} == {"nf2", "nf3"}
        for core_id, tracer in tracers.items():
            assert all(ev.core_id == core_id for ev in tracer.events)

    def test_runtime_by_task_on_nonzero_core(self):
        tracers, scenario = self._two_core_run()
        traced = tracers[1].runtime_by_task(core_id=1)
        assert set(traced) == {"nf2", "nf3"}
        for name in ("nf2", "nf3"):
            nf = scenario.manager.nf_by_name(name)
            assert traced[name] == pytest.approx(nf.stats.runtime_ns, rel=0.2)

    def test_render_timeline_on_nonzero_core(self):
        tracers, _ = self._two_core_run()
        art = tracers[1].render_timeline(0, int(0.1 * SEC),
                                         bucket_ns=5 * MSEC, core_id=1)
        lines = art.splitlines()
        assert any(line.startswith("nf2") or line.lstrip().startswith("nf2")
                   for line in lines)
        assert all("|" in line for line in lines)

    def test_result_carries_trace_drop_count(self):
        scenario = Scenario(scheduler="BATCH", features="NFVnice")
        build_linear_chain(scenario, (120, 550), core=0)
        scenario.add_flow("f", "chain", line_rate_fraction=0.5)
        scenario.manager.attach_observability(
            Observer(tracers={0: SchedTracer(max_events=10)}))
        result = scenario.run(0.05)
        assert result.sched_trace_dropped > 0
        assert result_to_dict(result)["sched_trace_dropped"] == \
            result.sched_trace_dropped


class TestExport:
    def test_round_trip(self, tmp_path):
        result = small_result()
        path = save_result(result, tmp_path / "r.json")
        data = load_result_dict(path)
        assert data["scheduler"] == "BATCH"
        assert data["chains"]["chain"]["completed"] == \
            result.chain("chain").completed
        assert "series" in data

    def test_series_round_trip(self, tmp_path):
        result = small_result()
        data = result_to_dict(result)
        name = next(iter(data["series"]))
        ts = series_from_dict(data["series"][name], name)
        assert isinstance(ts, TimeSeries)
        assert list(ts.values) == data["series"][name]["values"]

    def test_without_series(self):
        data = result_to_dict(small_result(), include_series=False)
        assert "series" not in data
        json.dumps(data)  # fully JSON-serialisable

    def test_result_from_dict_round_trip(self):
        result = small_result()
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt.scheduler == result.scheduler
        assert rebuilt.features == result.features
        assert rebuilt.duration_s == result.duration_s
        assert rebuilt.total_throughput_pps == result.total_throughput_pps
        assert rebuilt.sched_trace_dropped == result.sched_trace_dropped
        assert rebuilt.chains == result.chains
        assert rebuilt.nfs == result.nfs
        assert rebuilt.core_utilization == result.core_utilization
        assert set(rebuilt.series) == set(result.series)
        for name, ts in result.series.items():
            assert list(rebuilt.series[name].times) == list(ts.times)
            assert list(rebuilt.series[name].values) == list(ts.values)

    def test_load_result(self, tmp_path):
        result = small_result()
        path = save_result(result, tmp_path / "r.json")
        loaded = load_result(path)
        assert loaded.chain("chain").completed == \
            result.chain("chain").completed
        assert loaded.nf("nf1").processed == result.nf("nf1").processed


class TestPriorityExperiment:
    def test_gold_nf_gets_double_service(self):
        from repro.experiments.priority_differentiation import run_case

        res = run_case("NFVnice", duration_s=0.5)
        gold = res.chain("gold").throughput_pps
        be = res.chain("best-effort").throughput_pps
        assert gold / be == pytest.approx(2.0, rel=0.2)

    def test_default_ignores_priority(self):
        from repro.experiments.priority_differentiation import run_case

        res = run_case("Default", duration_s=0.5)
        gold = res.chain("gold").throughput_pps
        be = res.chain("best-effort").throughput_pps
        assert gold / be == pytest.approx(1.0, rel=0.1)


class TestWeightChangeAccounting:
    def test_weight_rewrite_on_queued_task_keeps_cfs_consistent(self):
        """Regression: a cgroup write landing while the task is queued must
        not corrupt the scheduler's aggregate ready weight."""
        from repro.sched.base import CoreTask
        from repro.sched.cfs import CFSScheduler
        from repro.sched.core import Core
        from repro.sim.engine import EventLoop

        loop = EventLoop()
        core = Core(loop, CFSScheduler())
        a, b = CoreTask("a"), CoreTask("b")
        # CoreTask is abstract for execution; weight accounting only needs
        # runqueue membership.
        core.add_task(a)
        core.add_task(b)
        sched = core.scheduler
        sched.enqueue(a, 0, wakeup=False)
        sched.enqueue(b, 0, wakeup=False)
        a.weight = 4096
        b.weight = 2
        total = sched._ready_weight
        assert total == 4096 + 2
        sched.dequeue(a, 0)
        sched.dequeue(b, 0)
        assert sched._ready_weight == 0
