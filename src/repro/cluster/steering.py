"""Cluster-level flow steering: ingress admission and replica balancing.

A :class:`Placement` is one runnable replica of the service chain — a
concrete :class:`~repro.platform.chain.ServiceChain` instantiated on one
host, reachable over that host's ingress link.  The :class:`FlowSteerer`
is the cluster's load balancer: each new flow is bound to the active
placement with the least assigned offered load, ties broken by a seeded
hash of ``(flow_id, placement_id)`` so the choice is stable under
insertion order, worker count and ``PYTHONHASHSEED``.

Binding is **permanent** (flow-level ECMP, not per-packet spraying): the
platform's ``flow.chain`` backref is read by ring accounting, Tx routing
and libnf on every hop, so moving a flow with packets still queued on
its old host would route those packets through the new host's chain.
Elasticity instead comes from *late* binding — a flow that first sends
after a scale-out lands on the new replica — which matches how
connection-affine L4 balancers behave in front of autoscaled backends.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Sequence, Tuple, TYPE_CHECKING

from repro.platform.chain import ServiceChain
from repro.platform.packet import Flow

from repro.cluster.fabric import FabricLink

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.topology import ClusterHost, CrossHostLink

#: A later leg of a chain spanning hosts: the link feeding it, its host.
Leg = Tuple["CrossHostLink", "ClusterHost", ServiceChain]


class Placement:
    """One chain replica, addressable from cluster ingress: its first leg
    on ``host`` and, when the chain spans hosts, the ``downstream`` legs."""

    def __init__(self, placement_id: str, host: "ClusterHost",
                 chain: ServiceChain, link: FabricLink,
                 downstream: Sequence[Leg] = ()) -> None:
        self.placement_id = placement_id
        self.host = host
        self.chain = chain
        self.link = link
        self.downstream: List[Leg] = list(downstream)
        #: Deactivated placements keep serving bound flows but receive no
        #: new bindings (scale-in).
        self.active = True
        self.assigned_flows = 0
        #: Sum of the declared offered rates of bound flows — the load
        #: signal the balancer spreads on.
        self.assigned_pps = 0.0

    @property
    def chains(self) -> List[ServiceChain]:
        """Every leg's chain in path order; only the last one delivers."""
        return [self.chain] + [chain for _l, _h, chain in self.downstream]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self.active else "drained"
        return (f"Placement({self.placement_id!r} on {self.host.name}, "
                f"{self.assigned_flows} flows, {state})")


class FlowSteerer:
    """Binds flows to chain placements at cluster ingress."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self.placements: List[Placement] = []
        self._by_flow: Dict[str, Placement] = {}
        #: Declared offered rate per flow (registered by the scenario
        #: builder) so the balancer can weigh a bind before any packets.
        self._rates: Dict[str, float] = {}
        self.flows_admitted = 0

    # ------------------------------------------------------------------
    # Placement lifecycle
    # ------------------------------------------------------------------
    def add_placement(self, host: "ClusterHost", chain: ServiceChain,
                      link: FabricLink,
                      downstream: Sequence[Leg] = ()) -> Placement:
        """Register a chain replica; its id is its first chain's name."""
        for existing in self.placements:
            if existing.placement_id == chain.name:
                raise ValueError(f"duplicate placement {chain.name!r}")
        placement = Placement(chain.name, host, chain, link, downstream)
        self.placements.append(placement)
        return placement

    def retire_placement(self, placement: Placement) -> None:
        """Scale-in: stop offering ``placement`` to new flows.

        Bound flows keep flowing (binding is permanent); the placement
        drains as they expire.
        """
        placement.active = False

    def active_placements(self) -> List[Placement]:
        return [p for p in self.placements if p.active]

    # ------------------------------------------------------------------
    # Flow admission
    # ------------------------------------------------------------------
    def register_flow_rate(self, flow_id: str, rate_pps: float) -> None:
        """Declare a flow's offered rate for load-aware binding."""
        self._rates[flow_id] = float(rate_pps)

    def placement_of(self, flow: Flow) -> Placement:
        """The flow's placement, binding it on first sight."""
        placement = self._by_flow.get(flow.flow_id)
        if placement is None:
            placement = self._bind(flow)
        return placement

    def _tiebreak(self, flow_id: str, placement_id: str) -> int:
        """Seeded, hash-seed-independent tie-break key."""
        key = f"{flow_id}|{placement_id}|{self.seed}".encode()
        return zlib.crc32(key)

    def _bind(self, flow: Flow) -> Placement:
        candidates = self.active_placements()
        if not candidates:
            raise RuntimeError(
                f"no active placements to bind flow {flow.flow_id!r}")
        fid = flow.flow_id
        best = min(
            candidates,
            key=lambda p: (p.assigned_pps, p.assigned_flows,
                           self._tiebreak(fid, p.placement_id)),
        )
        best.assigned_flows += 1
        best.assigned_pps += self._rates.get(fid, 0.0)
        best.host.manager.install_flow(flow, best.chain)
        upstream = flow
        for link, host, chain in best.downstream:
            upstream = link.connect_flow(upstream)
            host.manager.install_flow(upstream, chain)
        self._by_flow[fid] = best
        self.flows_admitted += 1
        return best

    def binds_per_placement(self) -> Dict[str, int]:
        """Bound-flow counts keyed by placement id (result material)."""
        counts = {p.placement_id: 0 for p in self.placements}
        for placement in self._by_flow.values():
            counts[placement.placement_id] += 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FlowSteerer({len(self.placements)} placements, "
                f"{self.flows_admitted} flows)")
