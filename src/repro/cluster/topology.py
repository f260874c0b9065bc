"""N-host cluster topology: many NF managers, one event loop, one fabric.

The paper schedules NF chains on a single OpenNetVM host; the cluster
layer grows that into a datacenter row (*DCSim*'s host/cluster split):

* each :class:`ClusterHost` wraps a full, unmodified
  :class:`~repro.platform.manager.NFManager` — NIC, Rx/Tx threads,
  wakeup, backpressure, cgroups, Monitor — on the **shared**
  :class:`~repro.sim.engine.EventLoop`, so cross-host causality needs no
  synchronization protocol;
* hosts hang off a :class:`~repro.cluster.fabric.FabricLink` graph.  The
  stock shape is a star — one ingress link per host, modelling the
  ToR-to-host wire — and :meth:`ClusterTopology.connect` adds arbitrary
  host-to-host edges (a chain spanning machines, paper §3.3) on top;
* the :class:`IngressPoint` duck-types the NIC surface the
  :class:`~repro.traffic.generator.TrafficGenerator` drives
  (``receive(flow, count, now_ns)``) and forwards each batch over the
  bound placement's ingress link, so cluster scenarios reuse every
  arrival model unchanged.

Flows bind to a placement at their **first packet** (see
:mod:`repro.cluster.steering`): the ``flow.chain`` backref that rings,
Tx routing and libnf consult is single-valued, so a bound flow can never
be re-steered mid-run — late binding is what lets a flash crowd land on
replicas that did not exist when the run started.
"""

from __future__ import annotations

from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    TYPE_CHECKING)

from repro.cluster.fabric import FabricLink
from repro.platform.config import PlatformConfig
from repro.platform.manager import NFManager
from repro.platform.nic import NIC
from repro.platform.packet import Flow, PacketSegment
from repro.sim.clock import USEC
from repro.sim.engine import EventLoop

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.steering import FlowSteerer


#: Cluster-wide core keys are ``host_index * HOST_CORE_STRIDE + core_id``
#: (``core_utilization``, ``NFSummary.core_id``), so a host has at most
#: this many addressable cores.
HOST_CORE_STRIDE = 100


def validate_slot(field: str, slot: Sequence[int],
                  n_hosts: int) -> Tuple[int, int]:
    """``slot`` as a ``(host_index, core_id)`` int pair, checked.

    Raises :class:`ValueError` naming ``field`` for a slot that is not a
    pair, a host outside ``[0, n_hosts)`` or a core outside
    ``[0, HOST_CORE_STRIDE)`` (which would collide in the cluster-wide
    core keys).
    """
    try:
        host, core = (int(x) for x in slot)
    except (TypeError, ValueError):
        raise ValueError(f"{field}: expected a (host, core) pair, "
                         f"got {slot!r}") from None
    if not 0 <= host < n_hosts:
        raise ValueError(f"{field}: host {host} outside the "
                         f"cluster (0..{n_hosts - 1})")
    if not 0 <= core < HOST_CORE_STRIDE:
        raise ValueError(f"{field}: core {core} outside "
                         f"0..{HOST_CORE_STRIDE - 1}")
    return host, core


def validate_slots(field: str, slots: Sequence[Sequence[int]],
                   n_hosts: int) -> List[Tuple[int, int]]:
    """Each of ``slots`` through :func:`validate_slot` as ``field[i]``."""
    return [validate_slot(f"{field}[{i}]", slot, n_hosts)
            for i, slot in enumerate(slots)]


class ClusterHost:
    """One machine of the cluster: an index, a name, and its manager."""

    def __init__(self, index: int, manager: NFManager) -> None:
        self.index = index
        self.name = f"h{index}"
        self.manager = manager

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClusterHost({self.name}, nfs={len(self.manager.nfs)})"


class CrossHostLink(FabricLink):
    """A host-to-host wire fed by the upstream host's NIC egress (§3.3).

    Only flows mapped with :meth:`connect_flow` are carried; other egress
    traffic leaves the topology (it reached its destination).  A carried
    segment is a hand-off, not a delivery: its upstream leg counts it in
    ``chain.completed`` but not in ``flow.stats.delivered``.  ECN CE
    marks applied on either host accumulate on the shared flow stats, so
    the TCP sender sees congestion from any hop.
    """

    def __init__(self, loop: EventLoop, upstream: ClusterHost,
                 downstream: ClusterHost,
                 deliver: Callable[[Flow, int, int], None],
                 latency_ns: int, link_bps: float) -> None:
        if upstream is downstream:
            raise ValueError(f"upstream and downstream are both "
                             f"{upstream.name}: a host link needs two "
                             f"distinct hosts")
        nic = upstream.manager.nic
        if nic.on_transmit is not None:
            raise ValueError(f"upstream {upstream.name} NIC already has an "
                             f"egress tap")
        super().__init__(
            loop,
            name=f"{nic.name}->{downstream.manager.nic.name}",
            deliver=deliver,
            latency_ns=latency_ns,
            link_bps=link_bps,
        )
        #: upstream flow_id -> the downstream host's twin Flow object.
        self._carried_flows: Dict[str, Flow] = {}
        nic.on_transmit = self._on_egress

    def connect_flow(self, upstream_flow: Flow) -> Flow:
        """Carry ``upstream_flow`` across this link.

        Each host steers the flow with its own :class:`Flow` twin (the
        ``chain`` backref is host-local) while stats and the TCP model are
        shared.  Install the returned twin into the downstream host's
        flow table.
        """
        twin = upstream_flow.clone_shared()
        self._carried_flows[upstream_flow.flow_id] = twin
        return twin

    def _on_egress(self, segment: PacketSegment) -> bool:
        """Carry a mapped flow's segment on; True when it did (a hand-off)."""
        flow = self._carried_flows.get(segment.flow.flow_id)
        if flow is not None:
            self.send(flow, segment.count, self.loop.now,
                      origin_ns=segment.origin_ns)
        return flow is not None


class ClusterTopology:
    """N hosts on one event loop, wired by a fabric link graph."""

    def __init__(
        self,
        loop: EventLoop,
        n_hosts: int,
        scheduler: str = "NORMAL",
        config: Optional[PlatformConfig] = None,
        ingress_latency_ns: int = 10 * USEC,
        ingress_bps: float = 10e9,
        ingress_queue_cap_pkts: Optional[int] = None,
        ingress_ecn_mark_pkts: Optional[int] = None,
    ) -> None:
        if n_hosts < 1:
            raise ValueError(f"a cluster needs >= 1 host, got {n_hosts}")
        self.loop = loop
        self.config = config if config is not None else PlatformConfig()
        self.hosts: List[ClusterHost] = []
        #: Every fabric link of the topology (ingress star + host-host
        #: edges), in creation order — the sanitizer folds their
        #: ``in_flight`` into packet conservation.
        self.links: List[FabricLink] = []
        #: host name -> its ToR-to-host ingress link.
        self.ingress_links: Dict[str, FabricLink] = {}
        for i in range(n_hosts):
            manager = NFManager(
                loop, scheduler=scheduler, config=self.config,
                nic=NIC(name=f"h{i}.nic"),
            )
            manager.core_track_base = i * HOST_CORE_STRIDE
            host = ClusterHost(i, manager)
            self.hosts.append(host)
            link = FabricLink(
                loop,
                name=f"ingress->{host.name}",
                deliver=self._deliver_to(host),
                latency_ns=ingress_latency_ns,
                link_bps=ingress_bps,
                queue_cap_pkts=ingress_queue_cap_pkts,
                ecn_mark_pkts=ingress_ecn_mark_pkts,
            )
            self.ingress_links[host.name] = link
            self.links.append(link)

    def _deliver_to(self, host: ClusterHost
                    ) -> Callable[[Flow, int, int], None]:
        def deliver(flow: Flow, count: int, origin_ns: int) -> None:
            host.manager.nic.rx_ring.enqueue(
                flow, count, self.loop.now, origin_ns=origin_ns)
        return deliver

    def connect(self, upstream: int, downstream: int,
                latency_ns: int = 10 * USEC,
                link_bps: float = 10e9) -> "CrossHostLink":
        """Add a host-to-host edge (a chain segment spanning machines).

        Raises :class:`ValueError` naming ``upstream``/``downstream`` for
        an index outside ``[0, n_hosts)``, the same host on both ends, or
        an upstream host whose NIC already feeds another link.
        """
        for field, index in (("upstream", upstream),
                             ("downstream", downstream)):
            if not 0 <= index < len(self.hosts):
                raise ValueError(f"{field} {index} outside the cluster "
                                 f"(0..{len(self.hosts) - 1})")
        link = CrossHostLink(
            self.loop,
            self.hosts[upstream],
            self.hosts[downstream],
            deliver=self._deliver_to(self.hosts[downstream]),
            latency_ns=latency_ns,
            link_bps=link_bps,
        )
        self.links.append(link)
        return link

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ClusterTopology(hosts={len(self.hosts)}, "
                f"links={len(self.links)})")


class IngressPoint:
    """The cluster's front door: a duck-typed NIC the generator feeds.

    Exposes exactly the surface :class:`~repro.traffic.generator.
    TrafficGenerator` uses (``receive``) plus the counters observability
    reads.  Each batch is steered to the flow's bound placement — binding
    happens on the first packet — and forwarded over that host's ingress
    link with ``origin_ns = now``, so end-to-end sojourn includes the
    fabric.
    """

    def __init__(self, steerer: "FlowSteerer") -> None:
        self.steerer = steerer
        self.received_packets = 0

    def receive(self, flow: Flow, count: int, now_ns: int) -> int:
        """Admit ``count`` packets of ``flow`` into the cluster."""
        placement = self.steerer.placement_of(flow)
        self.received_packets += count
        return placement.link.send(flow, count, now_ns)
