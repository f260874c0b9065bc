"""Observability sessions: CLI-level wiring for experiment runs.

Experiment modules build their scenarios internally (a fig07 run
constructs sixteen), so the CLI cannot hand each one an observer
directly.  Instead it enters a
:class:`~repro.experiments.common.RunContext` holding an
:class:`ObsSession`; every scenario — a single-host ``Scenario`` or a
``ClusterScenario``, through the one ``ScenarioBase.run`` — attaches the
context's session before starting its platforms.  The session gives the
:class:`~repro.obs.observer.Observer` a scenario's platforms share its
sinks and owns:

* one :class:`~repro.obs.bus.EventBus` per scenario (distinct Perfetto
  process per scenario in the exported trace),
* one :class:`~repro.obs.latency.FlowLatencyTracker` per scenario (with
  a :class:`~repro.obs.causality.CausalityTracer` unless the scenario
  brought its own tracker), whose exact per-hop wait/service histograms
  merge into one table at ``finalize()``; hop names are the NF names,
  so rows merge across scenarios,
* one shared :class:`~repro.obs.registry.MetricsRegistry` where each
  platform and the fabric links register their gauges under a
  ``scenario`` label.

``finalize()`` writes the requested artifacts and returns a printable
summary.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.obs.bus import EventBus
from repro.obs.export import write_chrome_trace, write_prometheus
from repro.obs.registry import MetricsRegistry
from repro.sim.clock import MSEC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.common import ScenarioBase
    from repro.obs.latency import FlowLatencyTracker
    from repro.platform.manager import NFManager


class ObsSession:
    """Collects observability artifacts across the scenarios of one run."""

    def __init__(
        self,
        trace_path: Optional[str] = None,
        metrics_path: Optional[str] = None,
        max_bus_events: int = 100_000,
        stream_path: Optional[str] = None,
        stream_interval_ns: int = 100 * MSEC,
    ):
        self.trace_path = trace_path
        self.metrics_path = metrics_path
        self.max_bus_events = int(max_bus_events)
        #: One tracker per attached scenario (a cluster's is shared by
        #: its hosts), merged into the per-hop table by ``finalize()``.
        self.latencies: List["FlowLatencyTracker"] = []
        self.registry = MetricsRegistry()
        self.buses: List[Tuple[str, EventBus]] = []
        self._label_counts: Dict[str, int] = {}
        self.streamer = None
        if stream_path is not None:
            from repro.obs.stream import SnapshotStreamer

            self.streamer = SnapshotStreamer(stream_path,
                                             int(stream_interval_ns))

    # ------------------------------------------------------------------
    def _unique_label(self, base: str) -> str:
        n = self._label_counts.get(base, 0) + 1
        self._label_counts[base] = n
        return base if n == 1 else f"{base} #{n}"

    def attach(self, scenario: "ScenarioBase") -> None:
        """Wire this session into a scenario about to run.

        The scenario's label is ``<sched>/<features>``, or
        ``cluster<N>/<sched>/<features>`` for an N-host cluster, whose
        hosts register their gauges under ``<label>/<host>`` and its
        fabric links under the bare label.  One event bus spans the
        scenario (a cluster's hosts share one loop, so one Perfetto
        process with every host's cores is the honest render): it joins
        the observer the platforms share, which the links' drop/ECN
        events reach too.  The observer's latency tracker (a fresh one,
        with a causality tracer, unless the scenario wired its own)
        feeds the per-hop table.  Only a scenario taking the ``stream``
        run part registers with the snapshot streamer.
        """
        hosts = [host for host, _mgr in scenario.platforms if host]
        label = f"{scenario.scheduler}/{scenario.features}"
        label = self._unique_label(
            f"cluster{len(hosts)}/{label}" if hosts else label)
        bus: Optional[EventBus] = None
        if self.trace_path is not None:
            bus = EventBus(scenario.loop, max_events=self.max_bus_events)
            self.buses.append((label, bus))
        obs = scenario.telemetry_observer()
        obs.bus = bus
        self.latencies.append(obs.latency)
        for host, mgr in scenario.platforms:
            self.register_platform_metrics(
                mgr, f"{label}/{host}" if host else label)
        for link in scenario.links:
            link.obs = obs.serving("bus")
        self.register_link_metrics(scenario.links, label)
        if self.streamer is not None and "stream" in scenario.RUN_PARTS:
            self.streamer.register(label, scenario.loop,
                                   registry=self.registry,
                                   latency=obs.latency,
                                   causality=obs.causality)

    def register_link_metrics(self, links, scenario: str) -> None:
        """Expose fabric-link counters as labelled metrics.

        The ``link`` label carries the raw link name (``ingress->h1``,
        ``h0.nic->h1``); the Prometheus exporter escapes label values, so
        arbitrary host/link names survive the text format round-trip.
        """
        reg = self.registry
        for link in links:
            reg.gauge("repro_link_in_flight",
                      "packets serialising or propagating on the wire",
                      fn=(lambda l=link: l.in_flight),
                      link=link.name, scenario=scenario)
            reg.counter("repro_link_carried_packets_total",
                        "packets accepted onto the link",
                        fn=(lambda l=link: l.carried_packets),
                        link=link.name, scenario=scenario)
            reg.counter("repro_link_carried_bytes_total",
                        "payload bytes accepted onto the link",
                        fn=(lambda l=link: l.carried_bytes),
                        link=link.name, scenario=scenario)
            reg.counter("repro_link_dropped_packets_total",
                        "packets dropped at the link queue cap",
                        fn=(lambda l=link: l.dropped_packets),
                        link=link.name, scenario=scenario)
            reg.counter("repro_link_ecn_marked_total",
                        "packets CE-marked by the link's ECN threshold",
                        fn=(lambda l=link: l.ecn_marked),
                        link=link.name, scenario=scenario)

    def register_platform_metrics(self, mgr: "NFManager",
                                  scenario: str) -> None:
        """Expose the platform's live counters as labelled gauges.

        Gauges wrap callables reading the live objects, so registration
        costs nothing on the data path; the streamer and the Prometheus
        exporter pull values on demand.
        """
        reg = self.registry
        for nf in mgr.nfs:
            reg.gauge("repro_nf_processed_packets",
                      "packets processed by the NF",
                      fn=(lambda nf=nf: nf.processed_packets),
                      nf=nf.name, scenario=scenario)
            reg.gauge("repro_nf_wasted_packets",
                      "NF output later dropped downstream",
                      fn=(lambda nf=nf: nf.wasted_processed),
                      nf=nf.name, scenario=scenario)
            reg.gauge("repro_nf_rx_ring_depth",
                      "instantaneous Rx ring occupancy",
                      fn=(lambda nf=nf: len(nf.rx_ring)),
                      nf=nf.name, scenario=scenario)
            # Drop totals are monotonic: export them with Prometheus type
            # ``counter`` (not gauge) so consumers can rate() them.
            reg.counter("repro_nf_rx_ring_drops_total",
                        "arrivals dropped at the NF Rx ring",
                        fn=(lambda nf=nf: nf.rx_ring.dropped_total),
                        nf=nf.name, scenario=scenario)
            from repro.platform.ring import DROP_REASONS
            for reason in DROP_REASONS:
                reg.counter("repro_nf_rx_ring_drops_by_reason_total",
                            "Rx-ring drops split by cause (congestion vs "
                            "failure shedding)",
                            fn=(lambda nf=nf, r=reason:
                                nf.rx_ring.drops_by_reason.get(r, 0)),
                            nf=nf.name, reason=reason, scenario=scenario)
            reg.gauge("repro_nf_restarts",
                      "recovery-policy restarts of this NF",
                      fn=(lambda nf=nf: nf.restarts),
                      nf=nf.name, scenario=scenario)
        for chain in mgr.chains.values():
            reg.gauge("repro_chain_completed_packets",
                      "packets that traversed the full chain",
                      fn=(lambda c=chain: c.completed),
                      chain=chain.name, scenario=scenario)
            reg.gauge("repro_chain_entry_discards",
                      "packets shed at system entry by backpressure",
                      fn=(lambda c=chain: c.entry_discards),
                      chain=chain.name, scenario=scenario)
            reg.gauge("repro_chain_wasted_packets",
                      "packets dropped after upstream processing",
                      fn=(lambda c=chain: c.wasted_drops),
                      chain=chain.name, scenario=scenario)
        for core_id, core in sorted(mgr.cores.items()):
            reg.gauge("repro_core_busy_seconds",
                      "simulated seconds the core spent on task work",
                      fn=(lambda c=core: c.stats.busy_ns / 1e9),
                      core=str(core_id), scenario=scenario)
            reg.gauge("repro_core_dispatches",
                      "scheduler dispatch count",
                      fn=(lambda c=core: c.stats.dispatches),
                      core=str(core_id), scenario=scenario)
        # Event-loop hygiene: queue traffic and how well lazy cancellation
        # and the periodic fast path are containing it.
        loop = mgr.loop
        reg.gauge("repro_loop_event_pushes",
                  "event inserts, periodic re-arms included",
                  fn=(lambda l=loop: l.pushes),
                  scenario=scenario)
        reg.gauge("repro_loop_event_pops",
                  "events fired",
                  fn=(lambda l=loop: l.pops),
                  scenario=scenario)
        reg.gauge("repro_loop_lazy_cancel_skips",
                  "cancelled entries discarded lazily",
                  fn=(lambda l=loop: l.lazy_cancel_skips),
                  scenario=scenario)
        reg.gauge("repro_loop_compactions",
                  "in-place heap compactions",
                  fn=(lambda l=loop: l.compactions),
                  scenario=scenario)
        reg.gauge("repro_loop_peak_pending",
                  "high-water mark of pending scheduled events",
                  fn=(lambda l=loop: l.peak_heap),
                  scenario=scenario)
        # Ring coalescing effectiveness, aggregated over every NF ring:
        # hit rate near 1.0 means bursty arrivals are merging into single
        # segments instead of allocating per-enqueue.
        rings = [r for nf in mgr.nfs for r in (nf.rx_ring, nf.tx_ring)]
        rings.append(mgr.nic.rx_ring)

        def _coalesce_rate(rs=tuple(rings)) -> float:
            hits = sum(r.coalesce_hits for r in rs)
            total = hits + sum(r.coalesce_misses for r in rs)
            return hits / total if total else 0.0

        reg.gauge("repro_ring_coalesce_hits",
                  "enqueues merged into an existing tail segment",
                  fn=(lambda rs=tuple(rings):
                      sum(r.coalesce_hits for r in rs)),
                  scenario=scenario)
        reg.gauge("repro_ring_coalesce_misses",
                  "enqueues that appended a new segment",
                  fn=(lambda rs=tuple(rings):
                      sum(r.coalesce_misses for r in rs)),
                  scenario=scenario)
        reg.gauge("repro_ring_coalesce_hit_rate",
                  "fraction of enqueues absorbed by tail merging",
                  fn=_coalesce_rate, scenario=scenario)

    # ------------------------------------------------------------------
    def finalize(self) -> str:
        """Write requested artifacts; returns a printable summary."""
        lines: List[str] = []
        if self.streamer is not None:
            lines.append(self.streamer.finalize())
        if self.trace_path is not None:
            write_chrome_trace(self.trace_path, self.buses)
            total = sum(len(bus) for _l, bus in self.buses)
            dropped = sum(bus.dropped for _l, bus in self.buses)
            note = f" ({dropped} past the bus cap not recorded)" \
                if dropped else ""
            lines.append(
                f"[obs] wrote {total} trace events from "
                f"{len(self.buses)} scenario(s) to {self.trace_path}{note}"
            )
        if self.metrics_path is not None:
            write_prometheus(self.registry, self.metrics_path)
            lines.append(
                f"[obs] wrote {len(self.registry)} metrics to "
                f"{self.metrics_path}"
            )
        if self.latencies:
            from repro.obs.latency import merge_latency_dicts, render_hop_table

            merged = merge_latency_dicts(
                [t.to_dict() for t in self.latencies])
            lines.append(render_hop_table(
                merged, f"per-hop latency breakdown — every packet, "
                        f"{len(self.latencies)} scenario(s)"))
        return "\n".join(lines)
