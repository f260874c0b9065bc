"""The Monitor thread (paper §3.5 "Separating load estimation and CPU
allocation").

Every millisecond it computes each NF's load — packet arrival rate (EWMA
over the 1 ms deltas of the Rx ring's offered-arrivals counter) times the
estimated per-packet service time (the 100 ms windowed median sampled by
libnf).  Every 10 ms it converts per-core loads into cgroup cpu.shares via
the rate-cost proportional formula and writes them through the cgroup
filesystem (a 5 µs sysfs write, so it must stay off the data path).

NF membership is dynamic: instances registered after construction (a
restarted NF, a scaled-out replica) are picked up on the next tick, and
per-NF bookkeeping is created lazily — arrival deltas are clamped at zero
so a counter that restarts from scratch cannot produce a negative rate.
The Monitor also hosts the fault watchdog when one is attached (it shares
the 1 ms cadence and, like the cgroup writes, must stay off the data
path).
"""

from __future__ import annotations

#: Digest-safety contract marker, verified by ``repro check --deep``
#: (SIM603) against ``repro.check.registry.MARKED_MODULES``.
__digest_safety__ = "digest-invisible: SLO/backpressure telemetry summaries"

from typing import Any, Dict, List, Optional, Sequence

from repro.core.cgroup_policy import compute_shares
from repro.core.nf import NFProcess
from repro.metrics.timeseries import TimeSeries
from repro.platform.config import PlatformConfig
from repro.sched.cgroups import CgroupController
from repro.sched.deadline import project_slo_miss
from repro.sim.clock import SEC
from repro.sim.engine import EventHandle, EventLoop


class SLOGovernor:
    """Deadline-cognizant share steering and chain-aware reallocation.

    The control half of the ``DEADLINE`` scheduler family
    (:mod:`repro.sched.deadline`).  Each weight-update period the Monitor
    asks the governor to evaluate every chain with a declared SLO, in
    sorted chain-name order (determinism):

    * the chain's live p99 sojourn comes from the attached
      :class:`~repro.obs.latency.FlowLatencyTracker` (PR 6's exact
      percentile snapshots), its backlog from the worst Rx-ring
      occupancy along the chain;
    * :func:`~repro.sched.deadline.project_slo_miss` projects the miss —
      a p99 *exactly at* the SLO is compliant;
    * a projected miss multiplies the chain's NFVnice priority factor by
      ``boost_step`` (capped at ``boost_max``) so the next cpu.shares
      computation tilts toward the missing chain;
    * ``migrate_after`` *consecutive* misses trigger chain-aware core
      reallocation: the chain's bottleneck NF (deepest Rx ring) moves to
      the least-busy spare core;
    * ``cooldown`` consecutive compliant evaluations decay the boost one
      step, so a recovered chain returns to plain NFVnice weights.

    The governor never mutates ``nf.priority`` — the Monitor multiplies
    :meth:`priority_factor` into the share formula — and reads telemetry
    only, so attaching it with no SLO targets is a no-op.
    """

    def __init__(
        self,
        manager,
        targets_ns: Dict[str, int],
        occupancy_threshold: float = 0.5,
        headroom: float = 0.8,
        boost_step: float = 2.0,
        boost_max: float = 8.0,
        migrate_after: int = 3,
        cooldown: int = 2,
        spare_cores: Sequence[int] = (),
    ):
        if boost_step <= 1.0:
            raise ValueError("boost_step must be > 1")
        if migrate_after < 1 or cooldown < 1:
            raise ValueError("migrate_after and cooldown must be >= 1")
        self.manager = manager
        #: chain name -> end-to-end sojourn budget (ns).
        self.targets_ns = dict(targets_ns)
        self.occupancy_threshold = float(occupancy_threshold)
        self.headroom = float(headroom)
        self.boost_step = float(boost_step)
        self.boost_max = float(boost_max)
        self.migrate_after = int(migrate_after)
        self.cooldown = int(cooldown)
        self.spare_cores = list(spare_cores)
        #: chain name -> current priority multiplier (> 1 while boosted).
        self.boost: Dict[str, float] = {}
        #: Control actions taken, in order (surfaced in results).
        self.events: List[Dict[str, Any]] = []
        self.checks = 0
        self.misses = 0
        self.migrations = 0
        self._miss_streak: Dict[str, int] = {}
        self._ok_streak: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Telemetry reads (override points for synthetic-snapshot tests)
    # ------------------------------------------------------------------
    def chain_p99_us(self, chain_name: str) -> float:
        """Live p99 sojourn (µs) of ``chain_name``, 0.0 before any
        delivery or when no tracker is attached."""
        obs = self.manager.obs
        if obs is None or obs.latency is None:
            return 0.0
        p99_us = obs.latency.chain_p99_us(chain_name)
        return 0.0 if p99_us is None else p99_us

    def chain_occupancy(self, chain) -> float:
        """Worst Rx-ring fill fraction along ``chain`` (0..1)."""
        worst = 0.0
        for nf in chain.nfs:
            occ = nf.rx_ring.occupancy()
            if occ > worst:
                worst = occ
        return worst

    # ------------------------------------------------------------------
    def priority_factor(self, nf: NFProcess) -> float:
        """Multiplier for ``nf.priority`` in the share formula (max over
        the boosted chains the NF belongs to)."""
        factor = 1.0
        for chain, _pos in nf.chain_positions.values():
            boost = self.boost.get(chain.name)
            if boost is not None and boost > factor:
                factor = boost
        return factor

    def evaluate(self, now_ns: int) -> None:
        """One control-loop pass over every chain with an SLO target."""
        self.checks += 1
        for name in sorted(self.targets_ns):
            chain = self.manager.chains.get(name)
            if chain is None:
                continue
            slo_us = self.targets_ns[name] / 1e3
            p99_us = self.chain_p99_us(name)
            occupancy = self.chain_occupancy(chain)
            if project_slo_miss(p99_us, slo_us, occupancy,
                                self.occupancy_threshold, self.headroom):
                self._on_miss(name, chain, p99_us, now_ns)
            else:
                self._on_compliant(name, now_ns)

    def _on_miss(self, name: str, chain, p99_us: float,
                 now_ns: int) -> None:
        self.misses += 1
        self._ok_streak[name] = 0
        streak = self._miss_streak.get(name, 0) + 1
        self._miss_streak[name] = streak
        current = self.boost.get(name, 1.0)
        boosted = min(current * self.boost_step, self.boost_max)
        if boosted > current:
            self.boost[name] = boosted
            self.events.append({
                "t_ns": now_ns, "kind": "boost", "chain": name,
                "factor": boosted, "p99_us": round(p99_us, 3),
            })
        if streak >= self.migrate_after:
            self._try_migrate(name, chain, now_ns)
            self._miss_streak[name] = 0

    def _on_compliant(self, name: str, now_ns: int) -> None:
        self._miss_streak[name] = 0
        streak = self._ok_streak.get(name, 0) + 1
        self._ok_streak[name] = streak
        if streak >= self.cooldown and name in self.boost:
            decayed = self.boost[name] / self.boost_step
            if decayed <= 1.0:
                del self.boost[name]
                decayed = 1.0
            else:
                self.boost[name] = decayed
            self._ok_streak[name] = 0
            self.events.append({
                "t_ns": now_ns, "kind": "decay", "chain": name,
                "factor": decayed,
            })

    def _try_migrate(self, name: str, chain, now_ns: int) -> None:
        """Move the chain's bottleneck NF to the least-busy spare core."""
        if not self.spare_cores:
            return
        bottleneck = None
        depth = -1
        for nf in chain.nfs:
            if nf.failed or nf.core is None:
                continue
            queued = len(nf.rx_ring)
            if queued > depth:
                depth = queued
                bottleneck = nf
        if bottleneck is None:
            return
        manager = self.manager
        best = None
        best_busy = 0
        for core_id in self.spare_cores:
            if bottleneck.core.core_id == core_id:
                continue
            busy = manager.core(core_id).stats.busy_ns
            if best is None or busy < best_busy:
                best = core_id
                best_busy = busy
        if best is None:
            return
        if manager.migrate_nf(bottleneck, best):
            self.migrations += 1
            self.events.append({
                "t_ns": now_ns, "kind": "migrate", "chain": name,
                "nf": bottleneck.name, "to_core": best,
            })

    def summary(self) -> Dict[str, Any]:
        """JSON-safe control-loop summary for experiment results."""
        return {
            "targets_us": {name: self.targets_ns[name] / 1e3
                           for name in sorted(self.targets_ns)},
            "checks": self.checks,
            "misses": self.misses,
            "migrations": self.migrations,
            "boost": {name: self.boost[name]
                      for name in sorted(self.boost)},
            "events": list(self.events),
        }


class MonitorThread:
    """Periodic load estimation and cgroup weight assignment."""

    def __init__(
        self,
        loop: EventLoop,
        nfs: List[NFProcess],
        cgroups: CgroupController,
        config: Optional[PlatformConfig] = None,
        record_series: bool = False,
    ):
        self.loop = loop
        self.nfs = list(nfs)
        self.cgroups = cgroups
        self.config = config if config is not None else PlatformConfig()
        self._arrival_ewma_pps: Dict[str, float] = {nf.name: 0.0 for nf in self.nfs}
        self._last_offered: Dict[str, int] = {
            nf.name: nf.offered_arrivals for nf in self.nfs
        }
        self._last_weight_update = 0
        self.record_series = record_series
        #: Optional :class:`repro.obs.observer.Observer`, wired by the manager.
        self.obs = None
        #: Optional :class:`repro.faults.watchdog.Watchdog`; ticked every
        #: monitor period when attached (the paper's Monitor core has the
        #: spare cycles; the data path must not pay for liveness checks).
        self.watchdog = None
        #: Optional per-NF share history (Figure 15a plots this).
        self.share_series: Dict[str, TimeSeries] = {
            nf.name: TimeSeries(nf.name) for nf in self.nfs
        }
        #: Optional :class:`SLOGovernor` (wired by the manager); evaluated
        #: every weight-update period just before shares are recomputed.
        self.slo_governor: Optional[SLOGovernor] = None
        self._period_ns = int(self.config.monitor_period_ns)
        self._tick_handle: Optional[EventHandle] = None

    def start(self) -> None:
        if self._tick_handle is None:
            self._tick_handle = self.loop.call_every(self._period_ns,
                                                     self.tick)

    def stop(self) -> None:
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None

    # ------------------------------------------------------------------
    # Dynamic membership
    # ------------------------------------------------------------------
    def add_nf(self, nf: NFProcess) -> None:
        """Start estimating a late-registered NF on the next tick."""
        if nf not in self.nfs:
            self.nfs.append(nf)

    def remove_nf(self, nf: NFProcess) -> None:
        """Stop estimating ``nf`` (bookkeeping is kept for re-registration)."""
        try:
            self.nfs.remove(nf)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    def tick(self) -> None:
        now = self.loop.now
        self._update_arrival_rates()
        if now - self._last_weight_update >= self.config.weight_update_ns:
            self._last_weight_update = now
            if self.slo_governor is not None:
                self.slo_governor.evaluate(now)
            self._update_weights(now)
        if self.watchdog is not None:
            self.watchdog.tick(now)

    def _update_arrival_rates(self) -> None:
        alpha = self.config.arrival_ewma_alpha
        period_s = self.config.monitor_period_ns / SEC
        for nf in self.nfs:
            offered = nf.offered_arrivals
            last = self._last_offered.get(nf.name)
            self._last_offered[nf.name] = offered
            if last is None:
                # First sighting (registered after construction): no
                # interval to difference yet.
                continue
            # A restarted NF may present a counter that went backwards;
            # a negative delta is a reset, not a negative arrival rate.
            delta = max(0, offered - last)
            instant_pps = delta / period_s
            prev = self._arrival_ewma_pps.get(nf.name, 0.0)
            self._arrival_ewma_pps[nf.name] = (
                (1.0 - alpha) * prev + alpha * instant_pps
            )

    def arrival_rate_pps(self, nf: NFProcess) -> float:
        return self._arrival_ewma_pps.get(nf.name, 0.0)

    def cluster_snapshot(self, now_ns: int) -> Dict[str, Dict[str, float]]:
        """Per-NF telemetry for cluster-level control loops.

        The :class:`repro.cluster.autoscaler.Autoscaler` polls this each
        evaluation period: arrival-rate EWMA, dimensionless CPU demand
        and Rx-ring fill fraction per live NF.  Read-only — the snapshot
        is computed from the same state the weight loop uses, so a
        cluster controller sees exactly what the per-host Monitor sees.
        """
        snap: Dict[str, Dict[str, float]] = {}
        for nf in self.nfs:
            if nf.core is None or nf.failed:
                continue
            snap[nf.name] = {
                "arrival_pps": self._arrival_ewma_pps.get(nf.name, 0.0),
                "load": self.load_of(nf, now_ns),
                "rx_occupancy": nf.rx_ring.occupancy(),
            }
        return snap

    def load_of(self, nf: NFProcess, now_ns: int) -> float:
        """load(i) = lambda_i * s_i, a dimensionless CPU demand."""
        lam = self._arrival_ewma_pps.get(nf.name, 0.0)
        service_s = nf.service_time_ns(now_ns) / SEC
        return lam * service_s

    def _update_weights(self, now_ns: int) -> None:
        # Group NFs by the core they share; shares are computed per core m.
        by_core: Dict[int, List[NFProcess]] = {}
        for nf in self.nfs:
            if nf.core is None or nf.failed:
                # A crashed NF has no process to weight; its share returns
                # once a recovery policy restarts it.
                continue
            by_core.setdefault(nf.core.core_id, []).append(nf)
        governor = self.slo_governor
        for _core_id, group in by_core.items():
            if governor is not None:
                # SLO boosts multiply the NFVnice priority factor in the
                # share formula without mutating nf.priority itself.
                loads = [
                    (nf.name, self.load_of(nf, now_ns),
                     nf.priority * governor.priority_factor(nf))
                    for nf in group
                ]
            else:
                loads = [
                    (nf.name, self.load_of(nf, now_ns), nf.priority)
                    for nf in group
                ]
            shares = compute_shares(loads)
            for nf in group:
                value = self.cgroups.set_shares(nf, shares[nf.name])
                if self.record_series:
                    series = self.share_series.get(nf.name)
                    if series is None:
                        series = self.share_series[nf.name] = \
                            TimeSeries(nf.name)
                    series.append(now_ns, value)
                if self.obs is not None:
                    self.obs.on_monitor_weights(nf, _core_id, value)
