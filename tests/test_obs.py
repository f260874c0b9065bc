"""Tests for the unified telemetry layer (:mod:`repro.obs`).

Covers the event bus (ordering, caps, determinism), the metrics registry
and sampler, the Chrome-trace / Prometheus exporters, and the end-to-end
wiring through :class:`~repro.obs.session.ObsSession` — including its
per-hop latency table and the guarantee that an attached session leaves
results bit-identical.
"""

import json

import pytest

from repro.experiments.common import (
    RunContext,
    Scenario,
    build_linear_chain,
    current_run_context,
)
from repro.obs.bus import EventBus
from repro.obs.export import (
    chrome_trace_events,
    render_prometheus,
    write_chrome_trace,
)
from repro.obs.observer import Observer
from repro.obs.registry import MetricsRegistry
from repro.obs.session import ObsSession
from repro.sim.engine import EventLoop


def build_scenario(**kwargs):
    scenario = Scenario(scheduler="BATCH", features="NFVnice", **kwargs)
    build_linear_chain(scenario, (120, 550), core=0)
    scenario.add_flow("f", "chain", line_rate_fraction=0.5)
    return scenario


class TestEventBus:
    def test_publish_records_in_order(self, loop):
        bus = EventBus(loop)
        bus.publish("a.one", "x", n=1)
        loop.schedule(5, lambda: bus.publish("a.two", "y"))
        loop.run_until(10)
        assert [ev.kind for ev in bus.events] == ["a.one", "a.two"]
        assert bus.events[0].time_ns == 0
        assert bus.events[1].time_ns == 5
        assert bus.events[0].args == {"n": 1}

    def test_counts_and_cap(self, loop):
        bus = EventBus(loop, max_events=3)
        for i in range(5):
            bus.publish("k", str(i))
        assert len(bus.events) == 3
        assert bus.dropped == 2
        assert bus.counts["k"] == 5  # counts keep running past the cap

    def test_subscribers_fire_even_past_cap(self, loop):
        bus = EventBus(loop, max_events=1)
        seen = []
        bus.subscribe(seen.append)
        bus.publish("k", "a")
        bus.publish("k", "b")
        assert [ev.source for ev in seen] == ["a", "b"]

    def test_platform_events_deterministic(self):
        """Two identical seeded runs publish identical event streams."""

        def run():
            scenario = build_scenario(seed=3)
            bus = EventBus(scenario.loop)
            scenario.manager.attach_observability(Observer(bus=bus))
            scenario.run(0.05)
            return [(ev.time_ns, ev.kind, ev.source) for ev in bus.events]

        first, second = run(), run()
        assert first == second
        kinds = {kind for _t, kind, _s in first}
        assert "sched.dispatch" in kinds
        assert "ring.enqueue" in kinds
        assert "ring.dequeue" in kinds

    def test_backpressure_events_published(self):
        scenario = build_scenario()
        bus = EventBus(scenario.loop)
        scenario.manager.attach_observability(Observer(bus=bus))
        scenario.run(0.1)
        kinds = bus.kinds()
        assert "bp.watch" in kinds
        assert "bp.throttle" in kinds
        # The bottleneck NF's throttle event names the chain it sheds at
        # entry; nf1's own throttle (entry NF) legitimately sheds none.
        evs = bus.of_kind("bp.throttle")
        assert any(ev.source == "nf2" and ev.args["chains"] == ["chain"]
                   for ev in evs)
        for ev in evs:
            assert ev.args["depth"] > 0


class CountingObserver(Observer):
    """Counts the scheduler hooks the cores call."""

    def __init__(self, **sinks):
        super().__init__(**sinks)
        self.calls = dict.fromkeys(("wake", "dispatch", "switch_out"), 0)

    def on_wake(self, core, task, now):
        self.calls["wake"] += 1
        super().on_wake(core, task, now)

    def on_dispatch(self, core, task, now):
        self.calls["dispatch"] += 1
        super().on_dispatch(core, task, now)

    def on_switch_out(self, core, task, outcome, now):
        self.calls["switch_out"] += 1
        super().on_switch_out(core, task, outcome, now)


class TestSchedHookRouting:
    """Only a bus consumes wakes and switch-outs; dispatches also feed
    the causality tracer."""

    def fig07_chain(self, with_bus):
        """A 0.1 s telemetry fig07 chain under a counting observer."""
        from repro.experiments import fig07_single_core_chain as fig07

        scenario = Scenario(scheduler="BATCH", features="NFVnice",
                            telemetry=True)
        build_linear_chain(scenario, fig07.CHAIN_COSTS, core=0)
        scenario.add_flow("flow", "chain", line_rate_fraction=1.0)
        observer = CountingObserver(
            bus=EventBus(scenario.loop) if with_bus else None)
        scenario.manager.attach_observability(observer)
        scenario.run(0.1)
        return observer

    def test_telemetry_only_run_skips_wake_and_switch_out(self):
        calls = self.fig07_chain(with_bus=False).calls
        assert calls["wake"] == calls["switch_out"] == 0
        assert calls["dispatch"] > 0

    def test_bus_receives_every_hook(self):
        observer = self.fig07_chain(with_bus=True)
        calls = observer.calls
        assert calls["wake"] > 0 and calls["switch_out"] > 0
        assert observer.bus.counts["sched.wake"] == calls["wake"]
        assert observer.bus.counts["sched.switch_out"] \
            == calls["switch_out"]


class TestRegistry:
    def test_counter_gauge_histogram_registration(self):
        reg = MetricsRegistry()
        c = reg.counter("hits", "total hits", nf="a")
        c.add(3)
        g = reg.gauge("depth", "ring depth", nf="a")
        g.set(17)
        reg.histogram("lat", "latency", nf="a")
        assert len(reg) == 3
        assert reg.scalar_value("hits", nf="a") == 3
        assert reg.scalar_value("depth", nf="a") == 17

    def test_same_name_different_labels_are_distinct(self):
        reg = MetricsRegistry()
        reg.counter("hits", nf="a").add(1)
        reg.counter("hits", nf="b").add(2)
        assert reg.scalar_value("hits", nf="a") == 1
        assert reg.scalar_value("hits", nf="b") == 2

    def test_registration_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("hits", nf="a") is reg.counter("hits", nf="a")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_gauge_callable_reads_live_state(self):
        reg = MetricsRegistry()
        state = {"v": 1}
        reg.gauge("live", fn=lambda: state["v"])
        assert reg.scalar_value("live") == 1
        state["v"] = 5
        assert reg.scalar_value("live") == 5

    def test_counter_callable_reads_live_state(self):
        reg = MetricsRegistry()
        state = {"n": 3}
        reg.counter("drops_total", fn=lambda: state["n"], nf="a")
        assert reg.scalar_value("drops_total", nf="a") == 3
        state["n"] = 8
        assert reg.scalar_value("drops_total", nf="a") == 8
        # Re-registration is idempotent and keeps the original callable.
        reg.counter("drops_total", nf="a")
        assert reg.scalar_value("drops_total", nf="a") == 8


class TestExporters:
    def _traced_bus(self):
        scenario = build_scenario()
        bus = EventBus(scenario.loop)
        scenario.manager.attach_observability(Observer(bus=bus))
        scenario.run(0.05)
        return bus

    def test_chrome_trace_shape(self):
        events = chrome_trace_events(self._traced_bus(), pid=4, label="lbl")
        slices = [e for e in events if e["ph"] == "X"]
        counters = [e for e in events if e["ph"] == "C"]
        meta = [e for e in events if e["ph"] == "M"]
        assert slices and counters and meta
        for e in slices:
            assert e["pid"] == 4
            assert e["dur"] >= 0
        counter_names = {e["name"] for e in counters}
        assert "ring nf1.rx" in counter_names
        process_names = [e for e in meta if e["name"] == "process_name"]
        assert process_names[0]["args"]["name"] == "lbl"

    def test_control_track_moves_past_core_track_900(self):
        # A cluster's tenth host traces its core 0 on track 900.
        bus = EventBus(EventLoop())
        bus.publish("sched.dispatch", "h9.nf", core=900)
        bus.publish("bp.watch", "h9.nf", depth=3)
        bus.publish("sched.switch_out", "h9.nf", core=900, detail="yield")
        events = chrome_trace_events(bus)
        names = {e["tid"]: e["args"]["name"] for e in events
                 if e["name"] == "thread_name"}
        assert names == {900: "core 900", 901: "manager control"}
        assert [e["tid"] for e in events if e["ph"] == "i"] == [901]
        assert [e["tid"] for e in events if e["ph"] == "X"] == [900]

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, [("case", self._traced_bus())])
        with open(path) as fh:
            data = json.load(fh)
        assert data["traceEvents"]
        assert data["displayTimeUnit"] == "ms"

    def test_prometheus_text_parses(self):
        reg = MetricsRegistry()
        reg.counter("repro_hits_total", "total hits", nf="a").add(5)
        reg.gauge("repro_depth", "queue depth", nf='we"ird').set(2.5)
        h = reg.histogram("repro_lat", "latency ns")
        for v in (100, 200, 300):
            h.add(v)
        text = render_prometheus(reg)
        assert "# HELP repro_hits_total total hits" in text
        assert "# TYPE repro_hits_total counter" in text
        assert 'repro_hits_total{nf="a"} 5' in text
        assert 'nf="we\\"ird"' in text
        assert 'repro_lat{quantile="0.5"}' in text
        assert "repro_lat_count 3" in text
        # Every non-comment line is "name{labels} value" with float value.
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            float(line.rsplit(" ", 1)[1])

    def test_callback_counter_renders_as_counter_with_escaping(self):
        """Fn-backed counters expose TYPE counter and escape label values
        (backslash, quote, newline) exactly like value-backed metrics."""
        reg = MetricsRegistry()
        state = {"n": 7}
        reg.counter("repro_drops_total", "ring drops",
                    fn=lambda: state["n"],
                    nf="a", reason='sea\\led "hard"\nnewline')
        text = render_prometheus(reg)
        assert "# TYPE repro_drops_total counter" in text
        assert 'reason="sea\\\\led \\"hard\\"\\nnewline"' in text
        line = [l for l in text.splitlines()
                if l.startswith("repro_drops_total")][0]
        # The raw newline was escaped, so the sample stays on one line.
        assert line.rsplit(" ", 1)[1] == "7"

    def test_ring_drop_counters_exported_per_reason(self):
        """The per-reason ring drop split reaches Prometheus as labelled
        monotonic counters (not gauges)."""
        from repro.platform.ring import DROP_REASONS

        session = ObsSession()
        with RunContext(session=session):
            build_scenario().run(0.05)
        text = render_prometheus(session.registry)
        assert "# TYPE repro_nf_rx_ring_drops_total counter" in text
        assert ("# TYPE repro_nf_rx_ring_drops_by_reason_total counter"
                in text)
        for reason in DROP_REASONS:
            assert f'reason="{reason}"' in text
        # The overloaded chain must actually have counted full-ring drops.
        full_lines = [l for l in text.splitlines()
                      if l.startswith("repro_nf_rx_ring_drops_by_reason")
                      and 'reason="full"' in l]
        assert any(float(l.rsplit(" ", 1)[1]) > 0 for l in full_lines)


class TestObsSession:
    def test_session_activation_lifecycle(self):
        assert current_run_context() is None
        session = ObsSession()
        with RunContext(session=session) as ctx:
            assert current_run_context() is ctx
            assert ctx.session is session
        assert current_run_context() is None
        with pytest.raises(RuntimeError, match="boom"):
            with RunContext(session=session):
                raise RuntimeError("boom")
        assert current_run_context() is None

    def test_scenario_attaches_to_active_session(self, tmp_path):
        trace = tmp_path / "t.json"
        prom = tmp_path / "m.prom"
        session = ObsSession(trace_path=str(trace), metrics_path=str(prom))
        with RunContext(session=session):
            build_scenario().run(0.05)
        summary = session.finalize()
        assert trace.exists() and prom.exists()
        assert "per-hop latency breakdown" in summary
        with open(trace) as fh:
            assert json.load(fh)["traceEvents"]
        assert "repro_chain_completed_packets" in prom.read_text()

    def test_session_streams_snapshots(self, tmp_path):
        from repro.sim.clock import MSEC as _MSEC

        path = tmp_path / "snaps.jsonl"
        session = ObsSession(stream_path=str(path),
                             stream_interval_ns=10 * _MSEC)
        with RunContext(session=session):
            build_scenario().run(0.05)
        summary = session.finalize()
        assert "streamed" in summary
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) >= 5  # 4 periodic at 10 ms + final
        for snap in lines:
            assert {"scenario", "t_ns", "gauges", "latency",
                    "causality"} <= set(snap)
        final = lines[-1]
        assert final["latency"]["flows"]["f"]["count"] > 0
        assert final["causality"]["culprits"]  # nf2 throttles this chain

    def test_no_session_means_no_bus(self):
        scenario = build_scenario()
        scenario.run(0.02)
        assert scenario.manager.obs is None
        for core in scenario.manager.cores.values():
            assert core.obs is None

    def test_session_hop_table_lists_nfs_in_chain_order(self):
        session = ObsSession()
        with RunContext(session=session):
            build_scenario().run(0.05)
        summary = session.finalize()
        assert "per-hop latency breakdown" in summary
        words = summary.split()
        assert [w for w in words if w in ("nf1", "nf2")] == ["nf1", "nf2"]
        # Exact tracker hops only: no NIC Rx or Tx-ring rows.
        assert "rx" not in words
        assert "nf1:tx" not in words

    def test_session_hop_table_deterministic(self):
        def run():
            session = ObsSession()
            with RunContext(session=session):
                build_scenario(seed=7).run(0.05)
            return session.finalize()

        assert run() == run()

    def test_session_leaves_results_bit_identical(self, tmp_path):
        """Tracing, metrics and streaming are observers: a run under an
        active session produces the same result digest as a plain run,
        and so does a traced run whose bus overflows its cap."""
        from repro.analysis.export import result_to_dict
        from repro.runner.digest import digest_of

        def run():
            scenario = Scenario(scheduler="NORMAL", features="Default",
                                seed=2)
            build_linear_chain(scenario, (120, 270, 550), core=0)
            scenario.add_flow("f", "chain", line_rate_fraction=1.0)
            return digest_of(result_to_dict(scenario.run(0.2)))

        plain = run()
        session = ObsSession(trace_path=str(tmp_path / "t.json"),
                             metrics_path=str(tmp_path / "m.prom"),
                             stream_path=str(tmp_path / "s.jsonl"))
        with RunContext(session=session):
            observed = run()
        session.finalize()
        assert observed == plain

        capped = ObsSession(trace_path=str(tmp_path / "capped.json"),
                            max_bus_events=10)
        with RunContext(session=capped):
            observed = run()
        capped.finalize()
        (_label, bus), = capped.buses
        assert bus.dropped > 0
        assert observed == plain
