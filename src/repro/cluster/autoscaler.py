"""Online VNF auto-scaling driven by the Monitor's telemetry.

The elastic half of the cluster (*Online VNF Scaling in Datacenters*):
a periodic control loop that instantiates or drains chain replicas
(:class:`~repro.cluster.steering.Placement`) from a declarative
:class:`ChainTemplate`, using the same per-host signals the paper's
Monitor computes every millisecond (§3.5).

**Scale-out** fires when *every* active placement is pressured for
``up_after`` consecutive evaluations (one replica struggling is a
balancing problem; all of them struggling is a capacity problem) and the
cooldown has expired.  A placement is pressured when any of:

* its CPU demand — the Monitor's ``sum(lambda_i * s_i)`` over the
  replica's NFs — reaches ``up_load`` of a core.  This is the
  *predictive* trigger: demand approaching 1.0 means unbounded queue
  growth, so the replica scales before its rings ever fill;
* its worst Rx-ring occupancy reaches ``up_occupancy`` (the reactive
  trigger, same signal the backpressure watermarks use);
* its live p99 sojourn projects an SLO miss
  (:func:`~repro.sched.deadline.project_slo_miss`, PR 7's governor
  predicate) against the template's budget.

The new replica lands on the next free ``(host, core)`` slot, preferring
the host with the fewest live placements (ties by slot order — fully
deterministic).  Its NFs join the running platform through the
post-start ``add_nf`` path (dynamic membership), so the wakeup scan,
Monitor and a Tx thread adopt them on the next tick.

**Scale-in** drains the newest placement whose demand stayed under
``down_load`` for ``down_after`` consecutive evaluations — never the
last active one — by retiring it from the steerer: bound flows keep
flowing, new flows stop arriving.  ``up_after``/``down_after`` plus the
shared ``cooldown_ns`` are the hysteresis that keeps the loop from
flapping on bursty arrivals.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.steering import FlowSteerer, Placement
from repro.cluster.topology import (ClusterHost, ClusterTopology,
                                    validate_slots)
from repro.core.nf import NFProcess
from repro.nfs.cost_models import FixedCost
from repro.platform.chain import ServiceChain
from repro.sched.deadline import project_slo_miss
from repro.sim.clock import MSEC
from repro.sim.engine import EventHandle


class ChainTemplate:
    """What one chain replica looks like: NF costs and an SLO budget."""

    def __init__(self, name: str, costs: Sequence[float],
                 slo_us: Optional[float] = None) -> None:
        if not costs:
            raise ValueError("a chain template needs >= 1 NF cost")
        if slo_us is not None and slo_us <= 0:
            raise ValueError(f"SLO budget must be positive, got {slo_us!r}")
        self.name = name
        self.costs = tuple(float(c) for c in costs)
        self.slo_us = None if slo_us is None else float(slo_us)

    def instantiate(self, host: ClusterHost, replica: int,
                    cores: int | Sequence[int], first: int = 0
                    ) -> ServiceChain:
        """Build NFs ``first, first + 1, ...`` of replica ``replica`` on
        ``host`` as one chain, on ``cores`` (one per NF: a leg of a chain
        spanning hosts), or the whole replica on core ``cores``.

        NF and chain names embed the replica index and host so they stay
        unique cluster-wide (``svc~r2.nf1@h1``).
        """
        if isinstance(cores, int):
            cores = [cores] * len(self.costs)
        manager = host.manager
        chain_name = f"{self.name}~r{replica}@{host.name}"
        nfs: List[NFProcess] = []
        for i, core_id in enumerate(cores, start=first + 1):
            nf = NFProcess(f"{self.name}~r{replica}.nf{i}@{host.name}",
                           FixedCost(self.costs[i - 1]),
                           config=manager.config)
            manager.add_nf(nf, core_id=core_id)
            nfs.append(nf)
        return manager.add_chain(chain_name, nfs)


class Autoscaler:
    """Hysteretic scale-out/scale-in of chain replicas across hosts."""

    def __init__(
        self,
        topology: ClusterTopology,
        steerer: FlowSteerer,
        template: ChainTemplate,
        slots: Sequence[Tuple[int, int]],
        latency: Optional[Any] = None,
        period_ns: int = 5 * MSEC,
        up_load: float = 0.6,
        up_occupancy: float = 0.35,
        up_after: int = 2,
        down_load: float = 0.05,
        down_after: int = 20,
        cooldown_ns: int = 30 * MSEC,
        occupancy_threshold: float = 0.5,
        headroom: float = 0.8,
    ) -> None:
        if up_after < 1 or down_after < 1:
            raise ValueError("up_after and down_after must be >= 1")
        if not 0.0 < up_load:
            raise ValueError(f"up_load must be positive, got {up_load!r}")
        self.topology = topology
        self.steerer = steerer
        self.template = template
        #: Free (host index, core id) capacity replicas may land on, in
        #: preference order.
        self.slots = validate_slots("slots", slots, len(topology.hosts))
        #: Optional shared :class:`~repro.obs.latency.FlowLatencyTracker`
        #: (the SLO-projection trigger is inert without it).
        self.latency = latency
        self.period_ns = int(period_ns)
        self.up_load = float(up_load)
        self.up_occupancy = float(up_occupancy)
        self.up_after = int(up_after)
        self.down_load = float(down_load)
        self.down_after = int(down_after)
        self.cooldown_ns = int(cooldown_ns)
        self.occupancy_threshold = float(occupancy_threshold)
        self.headroom = float(headroom)
        #: Scaling actions in event order:
        #: {"t_ns", "kind", "placement", "host", "core"}.
        self.events: List[Dict[str, Any]] = []
        self.scale_outs = 0
        self.scale_ins = 0
        self.evaluations = 0
        #: Called with each new placement right after scale-out (the
        #: scenario hooks sampler probes and metrics here).
        self.on_scale_out: Optional[Callable[[Placement], None]] = None
        self._used_slots: List[Tuple[int, int]] = []
        self._replica_seq = 0
        self._up_streak = 0
        self._down_streaks: Dict[str, int] = {}
        self._last_action_ns: Optional[int] = None
        self._handle: Optional[EventHandle] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def add_initial_placement(self, host_index: int,
                              core_id: int) -> Placement:
        """Instantiate a replica before the run starts (static seed)."""
        placement = self._instantiate(host_index, core_id)
        self._used_slots.append((host_index, core_id))
        return placement

    def start(self) -> None:
        if self._handle is None:
            self._handle = self.topology.loop.call_every(
                self.period_ns, self._tick)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        now = self.topology.loop.now
        self.evaluations += 1
        active = self.steerer.active_placements()
        if not active:
            return
        snapshots: Dict[str, Dict[str, Dict[str, float]]] = {}
        loads: Dict[str, float] = {}
        pressured = 0
        for placement in active:
            load, pressure = self._evaluate(placement, now, snapshots)
            loads[placement.placement_id] = load
            if pressure:
                pressured += 1
        if pressured == len(active):
            self._up_streak += 1
        else:
            self._up_streak = 0
        if (self._up_streak >= self.up_after
                and self._cooldown_over(now)
                and self._scale_out(now)):
            self._up_streak = 0
            return
        self._consider_scale_in(active, loads, now)

    def _evaluate(
        self,
        placement: Placement,
        now_ns: int,
        snapshots: Dict[str, Dict[str, Dict[str, float]]],
    ) -> Tuple[float, bool]:
        """(CPU demand, pressured?) for one placement."""
        host = placement.host
        snap = snapshots.get(host.name)
        if snap is None:
            monitor = host.manager.monitor
            snap = (monitor.cluster_snapshot(now_ns)
                    if monitor is not None else {})
            snapshots[host.name] = snap
        load = 0.0
        occupancy = 0.0
        for nf in placement.chain.nfs:
            row = snap.get(nf.name)
            if row is not None:
                load += row["load"]
                occ = row["rx_occupancy"]
            else:
                # No Monitor on this host (cgroups off): fall back to the
                # ring state the watermarks already read.
                occ = nf.rx_ring.occupancy()
            if occ > occupancy:
                occupancy = occ
        if load >= self.up_load or occupancy >= self.up_occupancy:
            return load, True
        slo_us = self.template.slo_us
        if slo_us is not None and self.latency is not None:
            p99_us = self.latency.chain_p99_us(placement.chain.name)
            if p99_us is not None and project_slo_miss(
                    p99_us, slo_us, occupancy, self.occupancy_threshold,
                    self.headroom):
                return load, True
        return load, False

    def _cooldown_over(self, now_ns: int) -> bool:
        last = self._last_action_ns
        return last is None or now_ns - last >= self.cooldown_ns

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    def _free_slots(self) -> List[Tuple[int, int]]:
        return [s for s in self.slots if s not in self._used_slots]

    def _pick_slot(self) -> Optional[Tuple[int, int]]:
        """Least-crowded host first, slot declaration order second."""
        free = self._free_slots()
        if not free:
            return None
        occupancy = {host.name: 0 for host in self.topology.hosts}
        for placement in self.steerer.placements:
            occupancy[placement.host.name] += 1
        return min(free, key=lambda s: (
            occupancy[self.topology.hosts[s[0]].name], free.index(s)))

    def _instantiate(self, host_index: int, core_id: int) -> Placement:
        host = self.topology.hosts[host_index]
        chain = self.template.instantiate(host, self._replica_seq, core_id)
        self._replica_seq += 1
        return self.steerer.add_placement(
            host, chain, self.topology.ingress_links[host.name])

    def _scale_out(self, now_ns: int) -> bool:
        slot = self._pick_slot()
        if slot is None:
            return False
        placement = self._instantiate(slot[0], slot[1])
        self._used_slots.append(slot)
        self._last_action_ns = now_ns
        self.scale_outs += 1
        self.events.append({
            "t_ns": int(now_ns), "kind": "scale_out",
            "placement": placement.placement_id,
            "host": placement.host.name, "core": slot[1],
        })
        if self.on_scale_out is not None:
            self.on_scale_out(placement)
        return True

    def _consider_scale_in(self, active: List[Placement],
                           loads: Dict[str, float], now_ns: int) -> None:
        for placement in active:
            pid = placement.placement_id
            if loads[pid] < self.down_load:
                self._down_streaks[pid] = self._down_streaks.get(pid, 0) + 1
            else:
                self._down_streaks[pid] = 0
        if len(active) <= 1 or not self._cooldown_over(now_ns):
            return
        # Drain the newest idle placement (reverse creation order) so the
        # cluster contracts the way it grew.
        for placement in reversed(active):
            pid = placement.placement_id
            if self._down_streaks.get(pid, 0) >= self.down_after:
                self.steerer.retire_placement(placement)
                self._down_streaks[pid] = 0
                self._last_action_ns = now_ns
                self.scale_ins += 1
                self.events.append({
                    "t_ns": int(now_ns), "kind": "scale_in",
                    "placement": pid, "host": placement.host.name,
                    "core": (placement.chain.nfs[0].core.core_id
                             if placement.chain.nfs[0].core is not None
                             else -1),
                })
                return

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """JSON-safe control-loop summary (digest material)."""
        return {
            "evaluations": self.evaluations,
            "scale_outs": self.scale_outs,
            "scale_ins": self.scale_ins,
            "replicas": self._replica_seq,
            "events": list(self.events),
        }
