"""Builder for cluster experiments (the multi-host Scenario).

A :class:`~repro.experiments.common.ScenarioBase` like
:class:`~repro.experiments.common.Scenario` — construct, add SLO classes
and flows, ``run(duration_s)`` through the one shared run lifecycle —
whose platforms are a whole :class:`~repro.cluster.topology.
ClusterTopology` behind a steered ingress instead of one manager behind
one NIC.  The shared summary folds every host into a single standard
:class:`~repro.experiments.common.ScenarioResult`, so campaign digests,
baselines and render tables reuse the existing machinery unchanged:

* NF/chain names are replica- and host-qualified, so the merged ``nfs``
  / ``chains`` dicts never collide; a replica spread over hosts (§3.3)
  has one chain (leg) per host, and only its last leg delivers;
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

from itertools import groupby
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple, cast

from repro.cluster.autoscaler import Autoscaler, ChainTemplate
from repro.cluster.steering import FlowSteerer, Leg, Placement
from repro.cluster.topology import (ClusterHost, ClusterTopology,
                                    CrossHostLink, IngressPoint,
                                    validate_slot, validate_slots)
from repro.experiments.common import ScenarioBase, add_tput_probe
from repro.obs.latency import FlowLatencyTracker
from repro.platform.chain import ServiceChain
from repro.platform.nic import NIC
from repro.platform.packet import Flow
from repro.traffic.generator import TrafficGenerator


class ClusterScenario(ScenarioBase):
    """One cluster configuration: topology, steering, flows, autoscaler."""

    #: No fault plan (its targets would need resolving per host) and no
    #: snapshot stream (the streamer registers one platform per label).
    RUN_PARTS = ("session", "sanitizer")

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
        super().__init__(scheduler, features, seed, None,
                         **config_overrides)
        self.seed = int(seed)
        self.topology = ClusterTopology(
            self.loop, n_hosts, scheduler=scheduler, config=self.config,
            ingress_latency_ns=ingress_latency_ns,
            ingress_bps=ingress_bps,
            ingress_queue_cap_pkts=ingress_queue_cap_pkts,
            ingress_ecn_mark_pkts=ingress_ecn_mark_pkts,
        )
        self.platforms = [(host.name, host.manager)
                          for host in self.topology.hosts]
        #: The topology's own list, which connect() extends.
        self.links = self.topology.links
        self.steerer = FlowSteerer(seed=seed)
        self.ingress = IngressPoint(self.steerer)
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
        #: One ``(host, core)`` slot per NF for each initial replica.
        self._initial_placements: List[List[Tuple[int, int]]] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def set_chain(
        self,
        name: str,
        costs: Sequence[float],
        slo_us: Optional[float] = None,
        placements: Sequence[Sequence[object]] = ((0, 0),),
    ) -> None:
        """Declare the service chain and its initial replica placements.

        Each ``placements`` entry gets one replica before the run starts:
        a ``(host_index, core_id)`` slot, or one slot per NF.  Consecutive
        NFs on different hosts become legs joined by
        :meth:`ClusterTopology.connect` (§3.3); a chain visits each host
        once, and a host hands off to one host only (its NIC feeds one
        link).  Call once.  A bad entry raises :class:`ValueError` naming
        ``placements[i]`` (``placements[i][j]`` for NF ``j``'s slot).
        """
        if self.template is not None:
            raise RuntimeError("set_chain may only be called once")
        template = ChainTemplate(name, costs, slo_us=slo_us)
        n_nfs, n_hosts = len(template.costs), len(self.topology.hosts)
        initial: List[List[Tuple[int, int]]] = []
        hands_off_to: Dict[int, int] = {}
        for i, entry in enumerate(placements):
            field = f"placements[{i}]"
            slots = (validate_slots(field, entry, n_hosts)
                     if isinstance(entry, (list, tuple)) and entry
                     and isinstance(entry[0], (list, tuple))
                     else [validate_slot(field, entry, n_hosts)] * n_nfs)
            if len(slots) != n_nfs:
                raise ValueError(f"{field}: {len(slots)} slots for a chain "
                                 f"of {n_nfs} NFs")
            hosts = [host for host, _leg in groupby(slots, itemgetter(0))]
            if len(set(hosts)) < len(hosts):
                raise ValueError(f"{field}: the chain returns to a host it "
                                 f"left; it may visit each host once")
            for up, down in zip(hosts, hosts[1:]):
                if hands_off_to.setdefault(up, down) != down:
                    raise ValueError(
                        f"{field}: host {up} already hands off to host "
                        f"{hands_off_to[up]}; its NIC feeds one link")
            initial.append(slots)
        self.template = template
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
        """Attach an :class:`Autoscaler` over the free ``slots``; it
        places whole replicas, so a spread placement raises ValueError."""
        if self.template is None:
            raise RuntimeError("set_chain before enable_autoscaler")
        if self.autoscaler is not None:
            raise RuntimeError("autoscaler already enabled")
        for i, placement in enumerate(self._initial_placements):
            if len(set(placement)) > 1:
                raise ValueError(f"placements[{i}]: a chain spread over "
                                 f"several slots is static only")
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
        flow = Flow(flow_id, pkt_size=pkt_size, protocol=protocol,
                    slo_ns=self._slo_ns(slo_class))
        self.steerer.register_flow_rate(flow_id, rate_pps)
        self.generator.add_flow(flow, rate_pps, **spec_kwargs)
        return flow

    # ------------------------------------------------------------------
    # Run hooks
    # ------------------------------------------------------------------
    def _prepare_run(self) -> Sequence[Any]:
        """The initial placements; the autoscaler starts last."""
        if self.template is None:
            raise RuntimeError("set_chain before run()")
        if not self.steerer.placements:
            self._materialise_placements()
        return () if self.autoscaler is None else (self.autoscaler,)

    def _materialise_placements(self) -> None:
        assert self.template is not None
        if self.autoscaler is not None:
            for slots in self._initial_placements:
                self.autoscaler.add_initial_placement(*slots[0])
            return
        # Static placement: instantiate replicas directly, one chain per
        # host a replica visits.
        links: Dict[Tuple[int, int], CrossHostLink] = {}
        for seq, slots in enumerate(self._initial_placements):
            legs: List[Tuple[ClusterHost, ServiceChain]] = []
            first = 0
            for host_idx, leg in groupby(slots, itemgetter(0)):
                cores = [core for _host, core in leg]
                host = self.topology.hosts[host_idx]
                legs.append((host, self.template.instantiate(
                    host, seq, cores, first)))
                first += len(cores)
            downstream: List[Leg] = []
            for (up, _chain), (host, chain) in zip(legs, legs[1:]):
                edge = (up.index, host.index)
                if edge not in links:
                    links[edge] = self.topology.connect(*edge)
                downstream.append((links[edge], host, chain))
            host, chain = legs[0]
            self.steerer.add_placement(
                host, chain, self.topology.ingress_links[host.name],
                downstream)

    def _on_scale_out(self, placement: Placement) -> None:
        """Give a freshly scaled-out chain its own throughput probe."""
        if self._sampler is not None:
            add_tput_probe(self._sampler, placement.chain)

    def _resilience(self, duration_s: float) -> Dict[str, Any]:
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
        return {"cluster": summary}
