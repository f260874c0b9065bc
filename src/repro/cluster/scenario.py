"""Builder + runner for cluster experiments (the multi-host Scenario).

Mirrors :class:`repro.experiments.common.Scenario`'s shape — construct,
add SLO classes and flows, ``run(duration_s)`` — but assembles a whole
:class:`~repro.cluster.topology.ClusterTopology` behind a steered
ingress instead of one manager behind one NIC, and summarises every
host into a single standard :class:`~repro.experiments.common.
ScenarioResult` so campaign digests, baselines and render tables reuse
the existing machinery unchanged:

* NF/chain names are replica- and host-qualified, so the merged ``nfs``
  / ``chains`` dicts never collide;
* ``core_utilization`` keys are ``host_index * 100 + core_id``;
* the cluster-only accounting — steering binds, autoscaler events,
  per-link fabric counters — rides ``result.resilience["cluster"]``,
  which :func:`repro.analysis.export.result_to_dict` already serialises
  (digest-covered, so a steering or scaling change cannot drift
  silently past a pinned baseline).

One :class:`~repro.obs.observer.Observer` holding one
:class:`~repro.obs.latency.FlowLatencyTracker` is shared by every host,
so a chain that completes on any machine lands in the same per-flow
histograms the SLO grid and the autoscaler's projection trigger read.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, cast

from repro.cluster.autoscaler import Autoscaler, ChainTemplate
from repro.cluster.steering import FlowSteerer, Placement
from repro.cluster.topology import (HOST_CORE_STRIDE, ClusterTopology,
                                    IngressPoint, validate_slots)
from repro.experiments.common import (
    ChainSummary,
    NFSummary,
    ScenarioResult,
    add_tput_probe,
    current_run_context,
    feature_config,
    slo_budget_ns,
)
from repro.metrics.timeseries import IntervalSampler
from repro.obs.latency import FlowLatencyTracker
from repro.platform.nic import NIC
from repro.platform.packet import Flow
from repro.sim.clock import SEC
from repro.sim.engine import EventLoop
from repro.sim.rng import RngFactory
from repro.traffic.generator import TrafficGenerator


class ClusterScenario:
    """One cluster configuration: topology, steering, flows, autoscaler."""

    def __init__(
        self,
        n_hosts: int,
        scheduler: str = "NORMAL",
        features: str = "NFVnice",
        seed: int = 0,
        ingress_latency_ns: int = 10_000,
        ingress_bps: float = 10e9,
        ingress_queue_cap_pkts: Optional[int] = None,
        ingress_ecn_mark_pkts: Optional[int] = None,
        **config_overrides: object,
    ) -> None:
        self.scheduler = scheduler
        self.features = features
        self.seed = int(seed)
        self.loop = EventLoop()
        self.rng_factory = RngFactory(seed)
        self.config = feature_config(features, None, **config_overrides)
        self.topology = ClusterTopology(
            self.loop, n_hosts, scheduler=scheduler, config=self.config,
            ingress_latency_ns=ingress_latency_ns,
            ingress_bps=ingress_bps,
            ingress_queue_cap_pkts=ingress_queue_cap_pkts,
            ingress_ecn_mark_pkts=ingress_ecn_mark_pkts,
        )
        self.steerer = FlowSteerer(seed=seed)
        self.ingress = IngressPoint(self.topology, self.steerer)
        # The generator only uses the NIC's ``receive`` surface, which
        # the ingress point provides.
        self.generator = TrafficGenerator(
            self.loop, cast(NIC, self.ingress),
            rng=self.rng_factory.stream("traffic"),
        )
        from repro.obs.observer import Observer
        #: Shared across every host: cluster-wide flow/chain histograms.
        self.observer = Observer(latency=FlowLatencyTracker(max_flows=512))
        for host in self.topology.hosts:
            host.manager.attach_observability(self.observer)
        self.template: Optional[ChainTemplate] = None
        self.autoscaler: Optional[Autoscaler] = None
        self._slo_classes: Dict[str, int] = {}
        self._initial_placements: List[Tuple[int, int]] = []
        self._sampler: Optional[IntervalSampler] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_slo_class(self, name: str, slo_us: float) -> None:
        """Declare an end-to-end p99 sojourn budget (µs) for flows."""
        self._slo_classes[name] = slo_budget_ns(slo_us)

    def set_chain(
        self,
        name: str,
        costs: Sequence[float],
        slo_us: Optional[float] = None,
        placements: Sequence[Tuple[int, int]] = ((0, 0),),
    ) -> None:
        """Declare the service chain and its initial replica placements.

        ``placements`` is a sequence of ``(host_index, core_id)`` slots;
        each gets one replica before the run starts.  Call once.  A host
        outside the cluster or a core outside ``[0, 100)`` raises
        :class:`ValueError` naming the offending ``placements[i]``.
        """
        if self.template is not None:
            raise RuntimeError("set_chain may only be called once")
        initial = validate_slots("placements", placements,
                                 len(self.topology.hosts))
        self.template = ChainTemplate(name, costs, slo_us=slo_us)
        self._initial_placements = initial

    def enable_autoscaler(
        self,
        slots: Sequence[Tuple[int, int]],
        period_ns: int = 5_000_000,
        up_load: float = 0.6,
        up_occupancy: float = 0.35,
        up_after: int = 2,
        down_load: float = 0.05,
        down_after: int = 20,
        cooldown_ns: int = 30_000_000,
    ) -> Autoscaler:
        """Attach an :class:`Autoscaler` over the free ``slots``."""
        if self.template is None:
            raise RuntimeError("set_chain before enable_autoscaler")
        if self.autoscaler is not None:
            raise RuntimeError("autoscaler already enabled")
        self.autoscaler = Autoscaler(
            self.topology, self.steerer, self.template, slots,
            latency=self.observer.latency, period_ns=period_ns,
            up_load=up_load, up_occupancy=up_occupancy, up_after=up_after,
            down_load=down_load, down_after=down_after,
            cooldown_ns=cooldown_ns,
        )
        self.autoscaler.on_scale_out = self._on_scale_out
        return self.autoscaler

    def add_flow(
        self,
        flow_id: str,
        rate_pps: float,
        pkt_size: int = 64,
        protocol: str = "udp",
        slo_class: Optional[str] = None,
        **spec_kwargs: object,
    ) -> Flow:
        """Create a flow at cluster ingress (steered at first packet)."""
        slo_ns = None
        if slo_class is not None:
            if slo_class not in self._slo_classes:
                raise ValueError(
                    f"undeclared SLO class {slo_class!r}; declare it with "
                    f"add_slo_class() first")
            slo_ns = self._slo_classes[slo_class]
        flow = Flow(flow_id, pkt_size=pkt_size, protocol=protocol,
                    slo_ns=slo_ns)
        self.steerer.register_flow_rate(flow_id, rate_pps)
        self.generator.add_flow(flow, rate_pps, **spec_kwargs)
        return flow

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _materialise_placements(self) -> None:
        assert self.template is not None
        if self.autoscaler is not None:
            for host_idx, core_id in self._initial_placements:
                self.autoscaler.add_initial_placement(host_idx, core_id)
        else:
            # Static placement: instantiate replicas directly.
            seq = 0
            for host_idx, core_id in self._initial_placements:
                host = self.topology.hosts[host_idx]
                chain = self.template.instantiate(host, seq, core_id)
                seq += 1
                self.steerer.add_placement(
                    host, chain, self.topology.ingress_links[host.name])

    def _on_scale_out(self, placement: Placement) -> None:
        """Give a freshly scaled-out chain its own throughput probe."""
        if self._sampler is not None:
            add_tput_probe(self._sampler, placement.chain)

    def run(self, duration_s: float = 1.0) -> ScenarioResult:
        """Run the cluster for ``duration_s`` simulated seconds."""
        if not (math.isfinite(duration_s) and duration_s > 0):
            raise ValueError(
                f"duration_s must be finite and positive, got {duration_s!r}")
        if self.template is None:
            raise RuntimeError("set_chain before run()")
        if not self.steerer.placements:
            self._materialise_placements()
        ctx = current_run_context()
        if ctx is not None:
            ctx.attach_cluster(self)
        sampler = IntervalSampler(self.loop, SEC)
        self._sampler = sampler
        for host in self.topology.hosts:
            for chain in host.manager.chains.values():
                add_tput_probe(sampler, chain)
        self.topology.start()
        self.generator.start()
        sampler.start()
        if self.autoscaler is not None:
            self.autoscaler.start()
        self.loop.run_until(self.loop.now + int(duration_s * SEC))
        self.topology.finalize()
        result = self._summarise(duration_s, sampler)
        if ctx is not None and ctx.sanitizer is not None:
            result.sanitizer_violations = ctx.sanitizer.finish_run(self)
        return result

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------
    def _cluster_summary(self) -> Dict[str, object]:
        """The digest-covered cluster accounting block."""
        summary: Dict[str, object] = {
            "hosts": len(self.topology.hosts),
            "placements": len(self.steerer.placements),
            "active_placements": len(self.steerer.active_placements()),
            "flows_admitted": self.steerer.flows_admitted,
            "binds": {
                name: count for name, count in sorted(
                    self.steerer.binds_per_placement().items())
            },
            "ingress_packets": self.ingress.received_packets,
            "links": {
                link.name: link.counters() for link in self.topology.links
            },
        }
        if self.autoscaler is not None:
            summary["autoscaler"] = self.autoscaler.summary()
        return summary

    def _summarise(self, duration_s: float,
                   sampler: IntervalSampler) -> ScenarioResult:
        horizon_ns = duration_s * SEC
        chains: Dict[str, ChainSummary] = {}
        nfs: Dict[str, NFSummary] = {}
        core_utilization: Dict[int, float] = {}
        completed = wasted = entry = 0
        for host in self.topology.hosts:
            mgr = host.manager
            completed += mgr.total_completed
            wasted += mgr.total_wasted_drops
            entry += mgr.total_entry_discards
            for chain in mgr.chains.values():
                chains[chain.name] = ChainSummary.from_chain(
                    chain, duration_s, sampler)
            for nf in mgr.nfs:
                nfs[nf.name] = NFSummary.from_nf(
                    nf, duration_s, core_base=host.index * HOST_CORE_STRIDE)
            for core_id, core in mgr.cores.items():
                core_utilization[host.index * HOST_CORE_STRIDE + core_id] = \
                    core.stats.utilization(horizon_ns)
        return ScenarioResult(
            scheduler=self.scheduler,
            features=self.features,
            duration_s=duration_s,
            total_throughput_pps=completed / duration_s,
            total_wasted_pps=wasted / duration_s,
            total_entry_discard_pps=entry / duration_s,
            chains=chains,
            nfs=nfs,
            core_utilization=core_utilization,
            series=dict(sampler.series),
            resilience={"cluster": self._cluster_summary()},
            loop_stats=self.loop.stats_dict(),
            flow_latency=self.observer.latency.to_dict(),
        )
