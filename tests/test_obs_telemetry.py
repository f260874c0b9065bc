"""Tests for the SLO telemetry layer: flow latency histograms
(:mod:`repro.obs.latency`), backpressure causality attribution
(:mod:`repro.obs.causality`), streaming snapshots and telemetry diffing
(:mod:`repro.obs.stream`), plus histogram aggregation and the
digest-invisibility contract the campaign runner relies on.
"""

import json
import math

import pytest

from repro.experiments.common import Scenario, build_linear_chain
from repro.metrics.histogram import CycleHistogram
from repro.obs.causality import (
    ATTRIBUTION_HEADERS,
    CausalityTracer,
    attribution_rows,
)
from repro.obs.latency import (
    FlowLatencyTracker,
    merge_latency_dicts,
    percentile_row,
    render_hop_table,
    summarize,
)
from repro.obs.stream import SnapshotStreamer, diff_telemetry, load_telemetry
from repro.platform.packet import Flow, PacketSegment
from repro.sim.clock import MSEC
from repro.sim.engine import EventLoop


def record_hop(tracker, hop, wait_ns, service_ns, count, now_ns=10**6):
    """One grant of ``count`` packets that queued ``wait_ns`` at ``hop``."""
    seg = PacketSegment(Flow("f"), count, enqueue_ns=now_ns - wait_ns)
    tracker.record_hop(hop, [seg], count, now_ns, service_ns)


def build_scenario(**kwargs):
    scenario = Scenario(scheduler="BATCH", features="NFVnice", **kwargs)
    build_linear_chain(scenario, (120, 550), core=0)
    scenario.add_flow("f", "chain", line_rate_fraction=0.5)
    return scenario


class TestHistogramBuckets:
    """Satellite coverage: exact bucket-boundary behaviour."""

    def test_sub_one_values_land_in_bucket_zero(self):
        h = CycleHistogram()
        h.add(0.0)
        h.add(0.999)
        assert h.count == 2
        assert h._counts[0] == 2
        # Bucket 0's representative value is 0.5.
        assert h.percentile(50) == 0.5

    def test_bucket_edge_value_matches_bucket_fn(self):
        """add()'s inlined bucket math must agree with _bucket() exactly,
        including at power-of-two bucket edges where float log is touchy."""
        h = CycleHistogram(bins_per_octave=4)
        for value in (1.0, 2.0, 4.0, 1024.0, 2.0 ** 0.25, 3.0, 1e6):
            expected = h._bucket(value)
            before = list(h._counts)
            h.add(value)
            changed = [i for i, (a, b) in
                       enumerate(zip(before, h._counts)) if a != b]
            assert changed == [expected], value

    def test_max_value_clamps_to_last_bucket(self):
        h = CycleHistogram(max_value=1e3)
        last = len(h._counts) - 1
        h.add(1e12)  # far beyond max_value
        assert h._counts[last] == 1
        # percentile falls back to the recorded max for the last bucket.
        assert h.percentile(99) <= 1e12

    def test_relative_bucket_width(self):
        """8 bins/octave gives ~9% relative resolution (latency tracker)."""
        h = CycleHistogram(bins_per_octave=8)
        width = math.exp(1 / h._scale)
        assert width == pytest.approx(2 ** (1 / 8))
        assert width - 1 < 0.095


class TestHistogramAggregation:
    def test_to_dict_from_dict_round_trip(self):
        h = CycleHistogram(bins_per_octave=8)
        for v in (0.5, 17, 400, 1e6):
            h.add(v, weight=3)
        data = h.to_dict()
        back = CycleHistogram.from_dict(json.loads(json.dumps(data)))
        assert back.to_dict() == data
        assert back.count == h.count
        assert back.percentile(99) == h.percentile(99)

    def test_to_dict_trims_trailing_zeros(self):
        h = CycleHistogram()
        h.add(10)
        data = h.to_dict()
        assert data["counts"][-1] != 0
        assert len(data["counts"]) < data["n_bins"]

    def test_merge_equals_single_accumulation(self):
        whole, a, b = (CycleHistogram(bins_per_octave=8) for _ in range(3))
        for i, v in enumerate((5, 50, 500, 5000, 50000)):
            whole.add(v)
            (a if i % 2 == 0 else b).add(v)
        a.merge(b)
        assert a.to_dict() == whole.to_dict()

    def test_merge_order_invariant_counts(self):
        parts = []
        for base in (1, 10, 100):
            h = CycleHistogram()
            for i in range(5):
                h.add(base * (i + 1))
            parts.append(h.to_dict())
        ab = CycleHistogram.from_dict(parts[0]).merge(
            CycleHistogram.from_dict(parts[1])).merge(
            CycleHistogram.from_dict(parts[2]))
        ba = CycleHistogram.from_dict(parts[2]).merge(
            CycleHistogram.from_dict(parts[1])).merge(
            CycleHistogram.from_dict(parts[0]))
        assert ab._counts == ba._counts
        assert ab.count == ba.count
        assert ab.min == ba.min and ab.max == ba.max

    def test_merge_extends_counts(self):
        small = CycleHistogram(max_value=10)
        big = CycleHistogram(max_value=1e9)
        big.add(1e8)
        small.merge(big)
        assert small.count == 1
        assert len(small._counts) == len(big._counts)
        assert small.percentile(50) == big.percentile(50)

    def test_merge_bins_mismatch_raises(self):
        with pytest.raises(ValueError):
            CycleHistogram(bins_per_octave=4).merge(
                CycleHistogram(bins_per_octave=8))


class TestFlowLatencyTracker:
    def test_records_per_flow_and_chain(self):
        t = FlowLatencyTracker()
        t.record_delivery("f1", "c", 1000, 2)
        t.record_delivery("f2", "c", 9000, 1)
        d = t.to_dict()
        assert d["flows"]["f1"]["count"] == 2
        assert d["flows"]["f2"]["count"] == 1
        assert d["chains"]["c"]["count"] == 3
        assert len(t) == 2

    def test_overflow_class_bounds_memory(self):
        t = FlowLatencyTracker(max_flows=2)
        for i in range(5):
            t.record_delivery(f"f{i}", "c", 100, 1)
        d = t.to_dict()
        assert set(d["flows"]) == {"f0", "f1", FlowLatencyTracker.OVERFLOW}
        assert d["flows"][FlowLatencyTracker.OVERFLOW]["count"] == 3

    def test_record_hop_clamps_negative_wait(self):
        t = FlowLatencyTracker()
        record_hop(t, "nf1", -5, 120, 4)
        d = t.to_dict()
        assert d["hops"]["nf1"]["wait"]["count"] == 4
        assert d["hops"]["nf1"]["wait"]["max"] == 0.0
        assert d["hops"]["nf1"]["service"]["count"] == 4

    def test_record_hop_counts_first_n_packets_of_a_grant(self):
        """Each segment's packets share its wait; packets past ``n`` (the
        part of the grant's last segment left queued) are not counted."""
        t = FlowLatencyTracker()
        segs = [PacketSegment(Flow("f"), 3, enqueue_ns=100),
                PacketSegment(Flow("f"), 5, enqueue_ns=300),
                PacketSegment(Flow("f"), 2, enqueue_ns=400)]
        t.record_hop("nf1", segs, 6, 1000, 50.0)
        hop = t.to_dict()["hops"]["nf1"]
        assert hop["wait"]["count"] == 6
        assert hop["wait"]["total"] == 900 * 3 + 700 * 3
        assert hop["service"]["count"] == 6
        assert hop["service"]["total"] == 50.0 * 6

    def test_export_mid_run_then_keep_recording(self):
        """to_dict() drains the staging layer; later samples still land."""
        t = FlowLatencyTracker()
        t.record_delivery("f", "c", 100, 1)
        assert t.to_dict()["flows"]["f"]["count"] == 1
        t.record_delivery("f", "c", 100, 2)
        assert t.to_dict()["flows"]["f"]["count"] == 3

    def test_pending_limit_drains_incrementally(self):
        t = FlowLatencyTracker()
        limit = FlowLatencyTracker._PENDING_LIMIT
        for v in range(limit + 10):
            t.record_delivery("f", "c", v + 1, 1)
        # The staging dict was drained at the cap, not grown past it.
        assert len(t._pending_deliv[("f", "c")]) < limit
        assert t.to_dict()["flows"]["f"]["count"] == limit + 10

    def test_hop_limit_drains_incrementally(self):
        t = FlowLatencyTracker()
        limit = FlowLatencyTracker._PENDING_LIMIT
        for w in range(limit + 10):
            record_hop(t, "nf1", w + 1, 50, 1)
        assert len(t._pending_hops["nf1"][0]) < limit
        wait = t.to_dict()["hops"]["nf1"]["wait"]
        assert wait["count"] == limit + 10
        assert wait["total"] == sum(range(1, limit + 11))

    def test_to_dict_shape_and_summary(self):
        t = FlowLatencyTracker()
        t.record_delivery("f", "c", 2000, 10)
        record_hop(t, "nf1", 100, 50, 10)
        d = t.to_dict()
        assert set(d) == {"flows", "chains", "hops", "hop_order"}
        assert d["hop_order"] == ["nf1"]
        s = t.summary()
        assert s["flows"]["f"]["count"] == 10
        assert s["hops"]["nf1"]["count"] == 10
        # 2000 ns is 2 us; bucketed percentile is within one bucket width.
        assert s["flows"]["f"]["p50_us"] == pytest.approx(2.0, rel=0.1)

    def test_percentile_row_keys(self):
        t = FlowLatencyTracker()
        t.record_delivery("f", "c", 1500, 1)
        row = percentile_row(t.to_dict()["flows"]["f"])
        assert set(row) == {"count", "p50_us", "p95_us", "p99_us",
                            "p99_9_us", "mean_us", "max_us"}

    def test_summarize_empty(self):
        assert summarize({}) == {}

    def test_merge_latency_dicts_equals_combined_run(self):
        whole, a, b = FlowLatencyTracker(), FlowLatencyTracker(), \
            FlowLatencyTracker()
        samples = [("f1", "c", 100, 1), ("f2", "c", 9000, 2),
                   ("f1", "c", 350, 4)]
        for i, s in enumerate(samples):
            whole.record_delivery(*s)
            (a if i % 2 == 0 else b).record_delivery(*s)
        record_hop(whole, "nf1", 10, 20, 3)
        record_hop(a, "nf1", 10, 20, 3)
        merged = merge_latency_dicts([a.to_dict(), b.to_dict()])
        assert merged["flows"] == whole.to_dict()["flows"]
        assert merged["hops"] == whole.to_dict()["hops"]
        assert merge_latency_dicts([]) == {}
        assert merge_latency_dicts([{}, {}]) == {}

    def test_render_hop_table_order_and_percentiles(self):
        t = FlowLatencyTracker()
        # First-recorded order is chain order, whatever the names sort to.
        record_hop(t, "zeta", 100_000, 7_000, 1)
        record_hop(t, "zeta", 300_000, 7_000, 1)
        record_hop(t, "alpha", 10_000, 2_000, 4)
        text = render_hop_table(t.to_dict(), "hops")
        rows = [line.split() for line in text.splitlines()
                if line.split() and line.split()[0] in ("zeta", "alpha")]
        assert [r[0] for r in rows] == ["zeta", "alpha"]
        assert [int(r[1]) for r in rows] == [2, 4]
        hops = summarize(t.to_dict())["hops"]
        assert hops["zeta"]["wait_p50_us"] == pytest.approx(100, rel=0.1)
        assert hops["zeta"]["wait_p99_us"] == pytest.approx(300, rel=0.1)
        assert hops["alpha"]["service_p50_us"] == pytest.approx(2, rel=0.1)
        assert "no hops recorded" in render_hop_table({}, "hops")


class TestCausalityTracer:
    def test_episode_lifecycle_and_throttle_ns(self):
        tr = CausalityTracer()
        tr.on_throttle("nf2", "c", 100)
        tr.on_clear("nf2", "c", 400)
        tr.on_throttle("nf2", "c", 1000)
        tr.on_clear("nf2", "c", 1600)
        assert tr.episode_counts["nf2"] == 2
        assert tr.throttle_ns["nf2"] == 300 + 600
        s = tr.summary(now_ns=2000)
        assert s["culprits"]["nf2"]["episodes"] == 2
        assert s["culprits"]["nf2"]["open_episodes"] == 0

    def test_open_episode_counted_to_now(self):
        tr = CausalityTracer()
        tr.on_throttle("nf3", "c", 500)
        s = tr.summary(now_ns=1500)
        assert s["culprits"]["nf3"]["open_episodes"] == 1
        assert s["culprits"]["nf3"]["throttle_ns"] == 1000
        # summary() must not close the episode.
        tr.on_clear("nf3", "c", 2000)
        assert tr.throttle_ns["nf3"] == 1500

    def test_clear_wrong_culprit_ignored(self):
        tr = CausalityTracer()
        tr.on_throttle("nf2", "c", 0)
        tr.on_clear("nf3", "c", 100)  # reclaimed under a different NF
        assert "nf2" not in tr.throttle_ns  # still open
        tr.on_clear("nf2", "c", 200)
        assert tr.throttle_ns["nf2"] == 200

    def test_delivery_overlap_attribution_exact(self):
        tr = CausalityTracer()
        tr.on_throttle("nf2", "c", 100)
        tr.on_clear("nf2", "c", 300)
        # Sojourn [0, 500] overlaps [100, 300] for 200 ns; 3 packets.
        tr.on_delivery("f", "c", 0, 500, 3)
        assert tr.summary(500)["induced_pkt_ns"] == {"f→nf2": 200 * 3}
        # Sojourn entirely after the episode: no attribution.
        tr.on_delivery("f", "c", 400, 600, 1)
        assert tr.summary(600)["induced_pkt_ns"] == {"f→nf2": 600}
        # Overlap with an open episode runs to delivery time.
        tr.on_throttle("nf3", "c", 700)
        tr.on_delivery("f", "c", 650, 900, 1)
        assert tr.summary(900)["induced_pkt_ns"]["f→nf3"] == 200

    def test_delivery_attribution_matches_bruteforce(self):
        """The prefix-sum fast path must equal per-episode overlap math
        across mixed culprits, partial overlaps and an open episode, with
        every delivery held in staging until summary() charges it against
        episodes that closed after it."""
        script = [("nf2", 100, 200), ("nf2", 300, 450), ("nf3", 500, 700),
                  ("nf3", 900, 950), ("nf2", 1000, 1300),
                  ("nf4", 1400, 1450), ("nf9", 1500, None)]  # last open
        deliveries = [(0, 120, 1), (150, 430, 3), (440, 960, 2),
                      (700, 1290, 1), (1310, 1390, 5), (1451, 1700, 2)]
        # Events must replay in simulated-time order — the tracer (like
        # the platform) never sees a delivery older than a closed episode.
        events = []
        for culprit, start, end in script:
            events.append((start, "throttle", (culprit, start)))
            if end is not None:
                events.append((end, "clear", (culprit, end)))
        for origin, now, count in deliveries:
            events.append((now, "deliver", (origin, now, count)))
        tr = CausalityTracer()
        for _t, kind, args in sorted(events, key=lambda e: (e[0], e[1])):
            if kind == "throttle":
                tr.on_throttle(args[0], "c", args[1])
            elif kind == "clear":
                tr.on_clear(args[0], "c", args[1])
            else:
                origin, now, count = args
                tr.on_delivery("f", "c", origin, now, count)
        assert tr.induced == {}  # still staged
        tr.summary(now_ns=1700)

        expected = {}
        for origin, now, count in deliveries:
            for culprit, start, end in script:
                hi = min(end if end is not None else now, now)
                lo = max(start, origin)
                if hi > lo:
                    key = ("f", culprit)
                    expected[key] = expected.get(key, 0) + (hi - lo) * count
        assert tr.induced == expected

    @pytest.mark.parametrize("limit", [1, None],
                             ids=["charged-at-limit", "staged"])
    def test_staged_deliveries_across_episode_prune_match_bruteforce(
            self, limit, monkeypatch):
        """Deliveries staged while the episode log is pruned are charged
        before the prune drops their episodes (``on_clear``'s drain), so
        the attribution matches per-episode overlap math either way."""
        from repro.obs import causality

        if limit is not None:
            monkeypatch.setattr(causality, "_MAX_PENDING_DELIVERIES", limit)
        n = causality._MAX_EPISODES_PER_CHAIN + 1
        # Episode i holds [10 i, 10 i + 5], alternating culprits in runs.
        culprits = ("nf2", "nf3")
        tr = CausalityTracer()
        deliveries = []
        for i in range(n):
            start = i * 10
            culprit = culprits[(i // 7) % 2]
            tr.on_throttle(culprit, "c", start)
            tr.on_clear(culprit, "c", start + 5)
            if i % 9 == 0:
                now = start + 7
                delivery = (max(0, now - 300), now, 1 + i % 3)
                deliveries.append(delivery)
                tr.on_delivery("f", "c", *delivery)
        assert tr.pruned_episodes > 0
        assert tr.induced  # the prune charged what was staged
        end = n * 10
        tr.on_delivery("f", "c", end - 40, end, 2)
        deliveries.append((end - 40, end, 2))
        tr.summary(now_ns=end)

        expected = {}
        for origin, now, count in deliveries:
            for i in range(origin // 10, now // 10 + 1):
                lo = max(i * 10, origin)
                hi = min(i * 10 + 5, now)
                if hi > lo:
                    key = ("f", culprits[(i // 7) % 2])
                    expected[key] = expected.get(key, 0) + (hi - lo) * count
        assert tr.induced == expected

    def test_entry_discard_attributes_open_culprit(self):
        tr = CausalityTracer()
        tr.on_entry_discard("c", "f", 7)  # no open episode
        assert tr.shed[("f", "?")] == 7
        tr.on_throttle("nf2", "c", 0)
        tr.on_entry_discard("c", "f", 5)
        assert tr.shed[("f", "nf2")] == 5

    def test_relinquish_and_resume_accounting(self):
        tr = CausalityTracer()
        tr.on_relinquish("nf1", True, 100)
        tr.on_relinquish("nf1", False, 600)
        assert tr.relinquish["nf1"] == [1, 500]
        # Next dispatch of nf1 closes the resume gap; other tasks don't.
        tr.on_dispatch("nf9", 700)
        tr.on_dispatch("nf1", 850)
        assert tr.resume["nf1"] == [1, 250]
        # A second dispatch without a pending release adds nothing.
        tr.on_dispatch("nf1", 900)
        assert tr.resume["nf1"] == [1, 250]

    def test_episode_cap_prunes_oldest(self):
        from repro.obs import causality

        tr = CausalityTracer()
        n = causality._MAX_EPISODES_PER_CHAIN + 1
        for i in range(n):
            tr.on_throttle("nf2", "c", i * 10)
            tr.on_clear("nf2", "c", i * 10 + 5)
        assert tr.pruned_episodes > 0
        log = tr._closed["c"]
        assert len(log.ends) < n
        # Parallel arrays stay consistent after the prune.
        assert len(log.starts) == len(log.ends) == len(log.culprits) \
            == len(log.cum) == len(log.run_start)
        assert log.cum[0] == log.ends[0] - log.starts[0]
        assert tr.episode_counts["nf2"] == n  # counters keep the total

    def test_summary_is_json_safe_and_sorted(self):
        tr = CausalityTracer()
        tr.on_throttle("nf2", "c", 0)
        tr.on_entry_discard("c", "f2", 1)
        tr.on_wasted_drop("nf2", 4)
        tr.on_delivery("f1", "c", 0, 100, 1)
        s = tr.summary(now_ns=100)
        assert json.loads(json.dumps(s, sort_keys=True)) == \
            json.loads(json.dumps(s, sort_keys=True))
        assert s["wasted_drops"] == {"nf2": 4}
        assert s["shed_packets"] == {"f2→nf2": 1}
        assert s["induced_pkt_ns"] == {"f1→nf2": 100}

    def test_attribution_rows_and_tables(self):
        tr = CausalityTracer()
        tr.on_throttle("nf2", "c", 0)
        tr.on_entry_discard("c", "f", 9)  # shed while nf2's episode open
        tr.on_clear("nf2", "c", 2_000_000)
        tr.on_delivery("f", "c", 0, 3_000_000, 2)
        tr.on_wasted_drop("nf2", 3)
        rows = attribution_rows(tr.summary(now_ns=3_000_000))
        assert len(rows) == 1
        nf, episodes, throttle_ms, induced_ms, shed, wasted = rows[0]
        assert nf == "nf2" and episodes == 1
        assert throttle_ms == 2.0
        assert induced_ms == 4.0  # 2 ms overlap x 2 packets
        assert shed == 9 and wasted == 3
        assert len(ATTRIBUTION_HEADERS) == len(rows[0])
        assert attribution_rows({}) == []


class TestSnapshotStreamer:
    def test_rejects_nonpositive_interval(self, tmp_path):
        with pytest.raises(ValueError):
            SnapshotStreamer(str(tmp_path / "s.jsonl"), 0)

    def test_periodic_snapshots_and_finalize(self, tmp_path):
        path = tmp_path / "s.jsonl"
        loop = EventLoop()
        latency = FlowLatencyTracker()
        latency.record_delivery("f", "c", 1000, 1)
        causality = CausalityTracer()
        streamer = SnapshotStreamer(str(path), 10 * MSEC)
        streamer.register("case", loop, latency=latency,
                          causality=causality)
        loop.run_until(25 * MSEC)
        summary = streamer.finalize()
        assert "snapshots" in summary
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == 3  # t=10ms, t=20ms, final
        assert all(obj["scenario"] == "case" for obj in lines)
        assert [obj["t_ns"] for obj in lines[:2]] == \
            [10 * MSEC, 20 * MSEC]
        assert lines[0]["latency"]["flows"]["f"]["count"] == 1
        assert "culprits" in lines[0]["causality"]

    def test_snapshot_gauges_scoped_to_scenario(self, tmp_path):
        from repro.obs.registry import MetricsRegistry

        reg = MetricsRegistry()
        reg.gauge("repro_depth", scenario="mine", nf="a").set(4)
        reg.gauge("repro_depth", scenario="other", nf="a").set(9)
        reg.counter("repro_hits_total", fn=lambda: 2, scenario="mine")
        loop = EventLoop()
        streamer = SnapshotStreamer(str(tmp_path / "s.jsonl"), MSEC)
        streamer.register("mine", loop, registry=reg)
        streamer.finalize()
        snap = json.loads(
            (tmp_path / "s.jsonl").read_text().splitlines()[0])
        assert snap["gauges"]["repro_depth|nf=a"] == 4.0
        assert snap["gauges"]["repro_hits_total"] == 2.0
        assert len(snap["gauges"]) == 2  # "other" scenario filtered out

    def test_stream_files_byte_identical_across_runs(self, tmp_path):
        def run(path):
            loop = EventLoop()
            latency = FlowLatencyTracker()
            latency.record_delivery("f", "c", 12345, 7)
            streamer = SnapshotStreamer(str(path), 5 * MSEC)
            streamer.register("case", loop, latency=latency)
            loop.run_until(12 * MSEC)
            streamer.finalize()
            return path.read_bytes()

        assert run(tmp_path / "a.jsonl") == run(tmp_path / "b.jsonl")


class TestTelemetryDiff:
    def _entry(self, p99=100.0):
        return {"latency": {"flows": {"f": {
            "count": 10, "p50_us": 10.0, "p95_us": 50.0,
            "p99_us": p99, "p99_9_us": p99 * 2,
        }}}}

    def test_no_regression_on_identical(self):
        a = {"case": self._entry()}
        report, n = diff_telemetry(a, a)
        assert n == 0
        assert "0 percentile regression(s)" in report

    def test_flags_regression_beyond_threshold(self):
        report, n = diff_telemetry({"case": self._entry(100.0)},
                                   {"case": self._entry(150.0)})
        assert n == 2  # p99 and p99.9 both grew 50%
        assert "REGRESSION case flow:f p99_us" in report
        assert "+50.0%" in report

    def test_absolute_floor_suppresses_jitter(self):
        # 50% relative growth but only 0.3 us absolute: below the floor.
        report, n = diff_telemetry({"case": self._entry(0.6)},
                                   {"case": self._entry(0.9)})
        assert n == 0

    def test_zero_baseline_growth_is_inf(self):
        report, n = diff_telemetry({"case": self._entry(0.0)},
                                   {"case": self._entry(5.0)})
        assert n >= 1
        assert "inf" in report

    def test_label_mismatch_skipped_not_flagged(self):
        report, n = diff_telemetry({"a": self._entry()},
                                   {"b": self._entry()})
        assert n == 0
        assert "only in" in report

    def test_load_telemetry_jsonl_last_wins(self, tmp_path):
        path = tmp_path / "s.jsonl"
        lines = [json.dumps({"scenario": "case", "t_ns": t,
                             "latency": {}}) for t in (1, 2, 3)]
        path.write_text("\n".join(lines) + "\n")
        loaded = load_telemetry(str(path))
        assert loaded["case"]["t_ns"] == 3

    def test_load_telemetry_plain_json_object(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"case": self._entry()}))
        loaded = load_telemetry(str(path))
        assert "latency" in loaded["case"]

    def test_load_telemetry_single_line_snapshot(self, tmp_path):
        path = tmp_path / "one.jsonl"
        path.write_text(json.dumps({"scenario": "case", "t_ns": 5}))
        assert load_telemetry(str(path))["case"]["t_ns"] == 5


class TestScenarioTelemetry:
    """End-to-end: telemetry through Scenario/manager wiring."""

    def test_scenario_telemetry_populates_result(self):
        scenario = build_scenario(telemetry=True)
        res = scenario.run(0.05)
        flows = res.flow_latency["flows"]
        assert flows["f"]["count"] > 0
        hops = res.flow_latency["hops"]
        assert set(hops) == {"nf1", "nf2"}
        assert res.flow_latency["hop_order"] == ["nf1", "nf2"]
        # The 550-cycle nf2 bottlenecks this chain, so the causality
        # tracer must attribute throttle episodes to it.
        assert res.causality["culprits"]["nf2"]["episodes"] > 0
        induced = res.causality["induced_pkt_ns"]
        assert any(key.endswith("→nf2") for key in induced)

    def test_telemetry_off_leaves_result_empty(self):
        res = build_scenario().run(0.05)
        assert res.flow_latency == {}
        assert res.causality == {}

    def test_telemetry_is_deterministic(self):
        def run():
            res = build_scenario(telemetry=True, seed=11).run(0.05)
            return json.dumps({"lat": res.flow_latency,
                               "cau": res.causality}, sort_keys=True)

        assert run() == run()

    def test_telemetry_does_not_perturb_digest(self):
        from repro.analysis.export import result_to_dict
        from repro.runner.digest import digest_of

        def run(telemetry):
            res = build_scenario(telemetry=telemetry, seed=5).run(0.05)
            return digest_of(result_to_dict(res))

        assert run(False) == run(True)

    def test_histograms_cover_all_delivered_packets(self):
        scenario = build_scenario(telemetry=True)
        res = scenario.run(0.05)
        delivered = sum(c.completed for c in res.chains.values())
        assert res.flow_latency["flows"]["f"]["count"] == delivered
        assert res.flow_latency["chains"]["chain"]["count"] == delivered


class TestTelemetryPinned:
    """Per-hop wait histograms and causality ride outside the result
    digest, so digest gates cannot see them change.  Rings hand
    descriptors over by reference and restamp ``enqueue_ns`` on
    admission; an NF that read the stamp after handing a segment on
    would record zero waits.  These literals were taken from the copy
    path the hand-off replaced."""

    def _case(self):
        from repro.experiments.slo_battery import run_case

        return run_case("mixed", "NORMAL", duration_s=0.02, seed=0)

    def test_slo_battery_hop_waits_and_causality_are_pinned(self):
        import hashlib

        result = self._case()
        waits = {hop: (h["wait"]["count"], h["wait"]["total"])
                 for hop, h in result.flow_latency["hops"].items()}
        assert waits == {
            "b1.mixed.NORMAL": (42183, 5077019602.0),
            "b2.mixed.NORMAL": (40109, 45143655051.0),
            "g1.mixed.NORMAL": (12994, 4328728473.0),
            "g2.mixed.NORMAL": (12730, 2234235586.0),
        }
        assert result.causality == {
            "culprits": {"b2.mixed.NORMAL": {
                "episodes": 7, "open_episodes": 0, "throttle_ns": 2500000}},
            "induced_pkt_ns": {
                "bulk.mixed.NORMAL→b2.mixed.NORMAL": 6967700000},
            "shed_packets": {
                "bulk.mixed.NORMAL→b2.mixed.NORMAL": 5988},
            "wasted_drops": {},
            "relinquish": {"b1.mixed.NORMAL": {
                "stalls": 7, "stalled_ns": 2500000}},
            "resume": {"b1.mixed.NORMAL": {
                "resumes": 7, "delay_ns": 595733}},
            "pruned_episodes": 0,
        }
        # Everything else in flow_latency (every bucket of every
        # histogram, per flow, chain and hop) through one hash.
        canon = json.dumps(result.flow_latency, sort_keys=True).encode()
        assert hashlib.sha256(canon).hexdigest() == (
            "375afe6ca047b534bd0bec88e96c6483a743b2f159dbff121b62530719c5f01d")

    @staticmethod
    def _sha(data):
        import hashlib

        return hashlib.sha256(
            json.dumps(data, sort_keys=True).encode()).hexdigest()

    def test_deadline_cell_with_live_reads_and_limit_drains_is_pinned(self):
        """The SLO governor reads live p99 mid-run, and the causality
        staging reaches its limit and drains twice; the 0.02 s cell above
        reaches neither."""
        from repro.experiments.slo_battery import run_case

        result = run_case("mixed", "DEADLINE", duration_s=0.2, seed=0)
        assert self._sha(result.flow_latency) == (
            "c8e4455e3e41212f1c559584fc14ff3c6e2b8149007d454f7c36666f7c0e1596")
        assert self._sha(result.causality) == (
            "d60e64045c095c4fef0550014aa523ee37d3dd36893abcc8c6a275fdbde86a53")

    def test_cluster_shared_tracker_is_pinned(self):
        """One latency-only observer shared by two hosts, read by the
        autoscaler mid-run."""
        from repro.experiments.cluster_scaling import run_case

        result = run_case("flash", 2, "auto", duration_s=0.2, seed=0)
        assert self._sha(result.flow_latency) == (
            "953173ae73c0de2cf68207710bc529bc8b9c9c5132ac4bc098cd263d59bdcbb0")
