"""Tests for the bus's scheduler timeline and the analysis helpers."""

import json
from collections import Counter

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
from repro.obs.bus import EventBus
from repro.obs.export import chrome_trace_events, render_timeline, sched_runs
from repro.obs.observer import Observer
from repro.sim.clock import MSEC, SEC
from repro.sim.engine import EventLoop


def small_result(features="NFVnice"):
    scenario = Scenario(scheduler="BATCH", features=features)
    build_linear_chain(scenario, (120, 550), core=0)
    scenario.add_flow("f", "chain", line_rate_fraction=0.5)
    return scenario.run(0.2)


def _sched_bus(*events, max_events=500_000):
    """A hand-built bus of core-0 scheduler events, each given as
    ``(time_ns, kind, task[, detail])`` with ``kind`` the bus kind's
    suffix (``"wake"``, ``"dispatch"`` or ``"switch_out"``)."""
    loop = EventLoop()
    bus = EventBus(loop, max_events=max_events)
    for time_ns, kind, task, *detail in events:
        loop.now = time_ns
        extra = {"detail": detail[0]} if detail else {}
        bus.publish(f"sched.{kind}", task, core=0, **extra)
    return bus


def _runtime_by_task(bus, core_id):
    """Total traced on-CPU time per task (ns) on one core."""
    out = Counter()
    for task, start, end, _reason in sched_runs(bus, core_id):
        out[task] += end - start
    return dict(out)


def _mismatched(runs):
    return sum(1 for run in runs if run[3].startswith("mismatch:"))


class TestSchedTracer:
    """The bus's ``sched.*`` events read as a ``perf sched`` timeline."""

    def _traced_run(self):
        scenario = Scenario(scheduler="BATCH", features="NFVnice")
        build_linear_chain(scenario, (120, 550), core=0)
        scenario.add_flow("f", "chain", line_rate_fraction=0.5)
        bus = EventBus(scenario.loop)
        scenario.manager.attach_observability(Observer(bus=bus))
        scenario.run(0.1)
        return bus, scenario

    def test_records_all_event_kinds(self):
        bus, _ = self._traced_run()
        assert {"sched.wake", "sched.dispatch", "sched.switch_out"} <= \
            set(bus.counts)
        assert len(bus.of_kind("sched.dispatch")) > 10

    def test_runs_are_well_formed(self):
        bus, _ = self._traced_run()
        runs = sched_runs(bus, 0)
        assert runs
        for task, start, end, reason in runs:
            assert end >= start
            assert reason  # every close carries an outcome

    def test_traced_runtime_matches_task_accounting(self):
        bus, scenario = self._traced_run()
        traced = _runtime_by_task(bus, 0)
        for nf in scenario.manager.nfs:
            if nf.name in traced:
                # Traced wall intervals include context-switch overhead at
                # dispatch; allow a coarse tolerance.
                assert traced[nf.name] == pytest.approx(
                    nf.stats.runtime_ns, rel=0.2)

    def test_timeline_renders(self):
        bus, _ = self._traced_run()
        art = render_timeline(bus, 0, int(0.1 * SEC), bucket_ns=5 * MSEC)
        lines = art.splitlines()
        assert lines
        for line in lines:
            assert "|" in line

    def test_timeline_validation(self):
        bus = _sched_bus()
        with pytest.raises(ValueError):
            render_timeline(bus, 10, 10)
        with pytest.raises(ValueError):
            render_timeline(bus, 0, 10, bucket_ns=0)

    def test_event_cap(self):
        bus = _sched_bus(*[(i, "wake", "t") for i in range(5)], max_events=3)
        assert len(bus) == 3
        assert bus.dropped == 2

    def test_counts(self):
        bus = _sched_bus((0, "wake", "a"), (1, "wake", "a"),
                         (2, "dispatch", "a"))
        assert bus.counts == {"sched.wake": 2, "sched.dispatch": 1}

    def test_mismatched_switch_out_closes_run(self):
        """A switch-out naming a different task must not silently discard
        the open run — it closes it flagged as a mismatch."""
        bus = _sched_bus((0, "dispatch", "a"), (10, "switch_out", "b", ""))
        runs = sched_runs(bus, 0)
        assert runs == [("a", 0, 10, "mismatch:b")]
        assert _mismatched(runs) == 1
        # The flagged interval still counts toward the task's runtime.
        assert _runtime_by_task(bus, 0) == {"a": 10}

    def test_double_dispatch_closes_run(self):
        bus = _sched_bus((0, "dispatch", "a"), (5, "dispatch", "b"),
                         (9, "switch_out", "b", "yield"))
        assert sched_runs(bus, 0) == [
            ("a", 0, 5, "mismatch:b"), ("b", 5, 9, "yield")]

    def test_chrome_slice_carries_mismatch_outcome(self):
        """A second dispatch closes the open run in the exported trace
        too: its on-CPU time becomes a slice flagged as a mismatch."""
        bus = _sched_bus((0, "dispatch", "a"), (5_000, "dispatch", "b"),
                         (9_000, "switch_out", "b", "yield"))
        slices = [(ev["name"], ev["ts"], ev["dur"], ev["args"]["outcome"])
                  for ev in chrome_trace_events(bus) if ev["ph"] == "X"]
        assert slices == [("a", 0.0, 5.0, "mismatch:b"),
                          ("b", 5.0, 4.0, "yield")]

    def test_well_formed_trace_has_no_mismatches(self):
        bus, _ = self._traced_run()
        assert _mismatched(sched_runs(bus, 0)) == 0

    def test_dropped_events_surface_in_timeline(self):
        bus = _sched_bus((0, "dispatch", "a"), (5, "switch_out", "a", ""),
                         (6, "dispatch", "a"), max_events=2)
        art = render_timeline(bus, 0, 10, bucket_ns=5)
        assert "1 events dropped" in art


class TestMultiCoreTracing:
    def _two_core_run(self):
        scenario = Scenario(scheduler="BATCH", features="NFVnice")
        build_linear_chain(scenario, (120, 300, 550), core=(0, 1, 1))
        scenario.add_flow("f", "chain", line_rate_fraction=0.5)
        bus = EventBus(scenario.loop)
        scenario.manager.attach_observability(Observer(bus=bus))
        scenario.run(0.1)
        return bus, scenario

    def test_each_core_traces_only_its_tasks(self):
        bus, _ = self._two_core_run()
        tasks = {0: set(), 1: set()}
        for ev in bus.events:
            if ev.kind.startswith("sched."):
                tasks[ev.args["core"]].add(ev.source)
        assert tasks == {0: {"nf1"}, 1: {"nf2", "nf3"}}

    def test_runtime_by_task_on_nonzero_core(self):
        bus, scenario = self._two_core_run()
        traced = _runtime_by_task(bus, 1)
        assert set(traced) == {"nf2", "nf3"}
        for name in ("nf2", "nf3"):
            nf = scenario.manager.nf_by_name(name)
            assert traced[name] == pytest.approx(nf.stats.runtime_ns, rel=0.2)

    def test_render_timeline_on_nonzero_core(self):
        bus, _ = self._two_core_run()
        art = render_timeline(bus, 0, int(0.1 * SEC), bucket_ns=5 * MSEC,
                              core_id=1)
        lines = art.splitlines()
        assert any(line.startswith("nf2") or line.lstrip().startswith("nf2")
                   for line in lines)
        assert all("|" in line for line in lines)


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
