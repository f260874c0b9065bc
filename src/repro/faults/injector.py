"""The fault injector: executes a :class:`FaultPlan` against a platform.

Wired by :meth:`NFManager.start` (via ``attach_faults``), the injector
schedules every planned onset on the simulation loop, applies the fault
mechanics at fire time, runs the watchdog/recovery pipeline, and keeps an
:class:`Incident` log from which resilience metrics are computed.

The division of labour:

* the **injector** owns ground truth (what was broken, when) and incident
  bookkeeping;
* the **watchdog** sees only external symptoms and calls back
  ``on_suspect``;
* the **policy** decides the response and reports back through
  :meth:`finish_recovery` / :meth:`give_up`.

Everything runs on the deterministic event loop and stochastic onsets
draw from a named, seeded stream, so a chaos run is exactly reproducible
from ``(plan, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

from repro.faults.metrics import availability, latency_stats
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.recovery import RecoveryPolicy, make_policy
from repro.faults.watchdog import Watchdog
from repro.sim.clock import SEC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.nf import NFProcess
    from repro.platform.manager import NFManager


@dataclass
class Incident:
    """One fault's lifecycle: injected -> detected -> recovered/healed."""

    index: int          # position of the FaultSpec in the plan
    kind: str
    target: str         # NF name, or "core:<id>"
    injected_ns: int
    detected_ns: Optional[int] = None
    recovered_ns: Optional[int] = None
    healed_ns: Optional[int] = None   # transient fault's duration elapsed
    gave_up: bool = False
    packets_lost: int = 0
    packets_requeued: int = 0
    #: NFs taken out together (core failures count every resident task).
    width: int = 1

    @property
    def detection_latency_ns(self) -> Optional[int]:
        if self.detected_ns is None:
            return None
        return self.detected_ns - self.injected_ns

    @property
    def recovery_latency_ns(self) -> Optional[int]:
        """Detect-to-recover time (the policy's share of the outage)."""
        if self.recovered_ns is None or self.detected_ns is None:
            return None
        return self.recovered_ns - self.detected_ns

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "kind": self.kind,
            "target": self.target,
            "injected_ns": self.injected_ns,
            "detected_ns": self.detected_ns,
            "recovered_ns": self.recovered_ns,
            "healed_ns": self.healed_ns,
            "gave_up": self.gave_up,
            "packets_lost": self.packets_lost,
            "packets_requeued": self.packets_requeued,
            "width": self.width,
        }


def _unknown_target(spec: FaultSpec, known) -> ValueError:
    """Targets resolve at onset: NFs and cores may join after start."""
    return ValueError(f"fault {spec.kind}: unknown target {spec.target!r}; "
                      f"expected one of {sorted(known)}")


class FaultInjector:
    """Applies a plan's faults to a live platform and logs incidents."""

    def __init__(
        self,
        manager: "NFManager",
        plan: FaultPlan,
        policy=None,
        rng=None,
    ):
        self.manager = manager
        self.loop = manager.loop
        self.plan = plan
        #: numpy Generator for stochastic onsets (required only when the
        #: plan has rate_per_s specs); Scenario passes its seeded
        #: ``faults`` stream here.
        self.rng = rng
        #: Optional :class:`repro.obs.observer.Observer`, wired by the manager.
        self.obs = None
        self.watchdog: Optional[Watchdog] = None
        self.policy: RecoveryPolicy = make_policy(
            policy if policy is not None else plan.policy)
        self.policy.bind(self)
        self.incidents: List[Incident] = []
        self.false_alarms = 0
        #: Open incidents by alias — the target NF's name, plus a
        #: "core:<id>" alias (and one per resident NF) for core failures.
        self._active: Dict[str, Incident] = {}
        self._saved_cost: Dict[str, Any] = {}
        self._wired = False

    # ------------------------------------------------------------------
    # Wiring (called at the end of NFManager.start())
    # ------------------------------------------------------------------
    def wire(self) -> None:
        if self._wired:
            return
        self._wired = True
        mgr = self.manager
        self.watchdog = Watchdog(
            self.loop,
            int(self.plan.detection_period_s * SEC),
            on_suspect=self.on_suspect,
        )
        for nf in mgr.nfs:
            self.watchdog.register(nf)
        if mgr.monitor is not None:
            # Ride the Monitor core's existing 1 ms tick.
            mgr.monitor.watchdog = self.watchdog
        else:
            self.watchdog.start_standalone(int(mgr.config.monitor_period_ns))
        self._schedule_onsets()

    def watch_nf(self, nf: "NFProcess") -> None:
        """Cover a post-start NF (called from NFManager.add_nf)."""
        if self.watchdog is not None:
            self.watchdog.register(nf)

    def _schedule_onsets(self) -> None:
        for index, spec in enumerate(self.plan.specs):
            if spec.at_s is not None:
                times = [int(spec.at_s * SEC)]
            else:
                if self.rng is None:
                    raise RuntimeError(
                        f"fault {spec.kind}@{spec.target} uses stochastic "
                        f"onsets (rate_per_s) but no rng stream was passed "
                        f"to attach_faults()"
                    )
                t = 0.0
                times = []
                for _ in range(spec.count):
                    t += float(self.rng.exponential(1.0 / spec.rate_per_s))
                    times.append(int(t * SEC))
            for t_ns in times:
                self.loop.call_at(
                    max(self.loop.now, t_ns), self._inject_cb(spec, index))

    def _inject_cb(self, spec: FaultSpec, index: int) -> Callable[[], None]:
        return lambda: self.inject(spec, index)

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------
    def inject(self, spec: FaultSpec, index: int) -> Optional[Incident]:
        """Apply one fault now; returns the incident (None if skipped)."""
        now = self.loop.now
        if spec.kind == "core_fail":
            return self._inject_core_fail(spec, index, now)
        try:
            nf = self.manager.nf_by_name(spec.target)
        except KeyError:
            raise _unknown_target(
                spec, [nf.name for nf in self.manager.nfs]) from None
        if nf.name in self._active:
            # Target already down; a second fault on a broken NF is a no-op.
            return None
        inc = Incident(index=index, kind=spec.kind, target=nf.name,
                       injected_ns=now)
        self.incidents.append(inc)
        self._active[nf.name] = inc
        if spec.kind == "crash":
            self._apply_crash(nf, inc, now)
        elif spec.kind == "hang":
            nf.hung = True
            self._park(nf)
        elif spec.kind == "slowdown":
            from repro.nfs.cost_models import ScaledCost

            self._saved_cost[nf.name] = nf.cost_model
            nf.cost_model = ScaledCost(nf.cost_model, spec.factor)
        elif spec.kind == "ring_stall":
            nf.rx_ring.sealed = True
            self._park(nf)
        if self.obs is not None:
            self.obs.on_fault_inject(nf.name, spec.kind, index,
                                     lost=inc.packets_lost)
        if spec.duration_s is not None:
            self.loop.schedule(int(spec.duration_s * SEC),
                               self._heal_cb(nf, inc, spec))
        return inc

    def _inject_core_fail(self, spec: FaultSpec, index: int,
                          now: int) -> Optional[Incident]:
        core_id = int(spec.target) if spec.target.isdigit() else None
        core = self.manager.cores.get(core_id)
        if core is None:
            raise _unknown_target(spec, map(str, self.manager.cores))
        alias = f"core:{core_id}"
        if alias in self._active:
            return None
        inc = Incident(index=index, kind="core_fail", target=alias,
                       injected_ns=now, width=len(core.tasks))
        self.incidents.append(inc)
        self._active[alias] = inc
        core.fail()
        for task in core.tasks:
            # Every resident NF maps back to this one incident so the
            # watchdog's per-NF suspicions aggregate correctly.
            self._active.setdefault(task.name, inc)
        if self.obs is not None:
            self.obs.on_fault_inject(alias, "core_fail", index,
                                     tasks=len(core.tasks))
        return inc

    def _apply_crash(self, nf: "NFProcess", inc: Incident, now: int) -> None:
        nf.failed = True
        # The batch the process held in user space dies with it.
        if len(nf.rx_ring):
            inflight = nf.rx_ring.dequeue(
                min(nf.batch_size, len(nf.rx_ring)))
            for seg in inflight:
                seg.flow.stats.queue_drops += seg.count
                inc.packets_lost += seg.count
        # Until recovery, the manager sheds this NF's arrivals (nf_dead
        # drops) rather than queueing into a ring nobody drains.
        nf.rx_ring.dead = True
        self._park(nf)

    def _park(self, nf: "NFProcess") -> None:
        """Take the NF off the CPU immediately (mid-quantum if running)."""
        if nf.core is not None:
            nf.core.deschedule(nf)

    # ------------------------------------------------------------------
    # Transient self-heal
    # ------------------------------------------------------------------
    def _heal_cb(self, nf: "NFProcess", inc: Incident,
                 spec: FaultSpec) -> Callable[[], None]:
        return lambda: self.heal(nf, inc, spec)

    def heal(self, nf: "NFProcess", inc: Incident, spec: FaultSpec) -> None:
        """Undo a transient fault whose duration elapsed."""
        if inc.detected_ns is not None or inc.recovered_ns is not None \
                or inc.gave_up:
            # The watchdog got there first; recovery owns this incident.
            return
        now = self.loop.now
        if spec.kind == "hang":
            nf.hung = False
        elif spec.kind == "ring_stall":
            nf.rx_ring.sealed = False
        elif spec.kind == "slowdown":
            saved = self._saved_cost.pop(nf.name, None)
            if saved is not None:
                nf.cost_model = saved
        inc.healed_ns = now
        self._active.pop(nf.name, None)
        if self.watchdog is not None:
            self.watchdog.forget(nf)
        if self.obs is not None:
            self.obs.on_fault_heal(nf, spec.kind, now - inc.injected_ns)
        if self.manager.wakeup is not None:
            self.manager.wakeup.notify(nf)

    # ------------------------------------------------------------------
    # Detection -> recovery pipeline
    # ------------------------------------------------------------------
    def on_suspect(self, nf: "NFProcess", now_ns: int) -> None:
        """Watchdog callback: route a suspicion to the recovery policy."""
        inc = self._active.get(nf.name)
        if inc is None and nf.core is not None:
            # An NF migrated onto a core *after* that core's failure was
            # injected is not in the incident's resident-task snapshot.
            # Adopt it into the open core incident so recovery covers the
            # migrant instead of discarding the suspicion as noise.
            core_inc = self._active.get(f"core:{nf.core.core_id}")
            if core_inc is not None:
                self._active[nf.name] = core_inc
                core_inc.width += 1
                inc = core_inc
        if inc is None:
            # Suspicion without an injected fault: a watchdog false
            # positive.  Counted, not acted on — restarting a healthy NF
            # on a hunch is how outages start.
            self.false_alarms += 1
            return
        if inc.detected_ns is None:
            inc.detected_ns = now_ns
            if self.obs is not None:
                self.obs.on_fault_detect(nf, inc.kind,
                                         now_ns - inc.injected_ns)
        self.policy.on_detected(nf, inc, now_ns)

    def finish_recovery(self, nf: "NFProcess", incident: Incident,
                        now_ns: int) -> None:
        """Policy callback: ``nf`` is serving again."""
        # For multi-NF (core) incidents the last restart defines recovery.
        incident.recovered_ns = now_ns
        self._active.pop(nf.name, None)
        if incident.target.startswith("core:"):
            still_down = [
                alias for alias, open_inc in self._active.items()
                if open_inc is incident and alias != incident.target
            ]
            if not still_down:
                self._active.pop(incident.target, None)
        if self.watchdog is not None:
            self.watchdog.forget(nf)
        if self.obs is not None:
            self.obs.on_fault_recover(
                nf, incident.kind, now_ns - incident.injected_ns,
                incident.packets_lost, incident.packets_requeued)
        if self.manager.wakeup is not None:
            self.manager.wakeup.notify(nf)

    def give_up(self, nf: "NFProcess", incident: Incident,
                now_ns: int) -> None:
        """Policy callback: this NF will not be recovered (fail-chain)."""
        incident.gave_up = True
        # The incident stays open and the watchdog keeps it in the
        # suspected set, so nothing re-fires for this NF.
        if self.obs is not None:
            self.obs.on_fault_giveup(nf, incident.kind)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self, horizon_ns: Optional[int] = None) -> Dict[str, Any]:
        """JSON-safe resilience summary for experiment results."""
        horizon = self.loop.now if horizon_ns is None else int(horizon_ns)
        det = [inc.detection_latency_ns for inc in self.incidents
               if inc.detection_latency_ns is not None]
        rec = [inc.recovery_latency_ns for inc in self.incidents
               if inc.recovery_latency_ns is not None]
        return {
            "policy": self.policy.name,
            "incidents": [inc.to_dict() for inc in self.incidents],
            "injected": len(self.incidents),
            "detected": sum(
                1 for i in self.incidents if i.detected_ns is not None),
            "recovered": sum(
                1 for i in self.incidents if i.recovered_ns is not None),
            "healed": sum(
                1 for i in self.incidents if i.healed_ns is not None),
            "gave_up": sum(1 for i in self.incidents if i.gave_up),
            "false_alarms": self.false_alarms,
            "packets_lost": sum(i.packets_lost for i in self.incidents),
            "packets_requeued": sum(
                i.packets_requeued for i in self.incidents),
            "restarts": sum(nf.restarts for nf in self.manager.nfs),
            "availability": availability(
                self.incidents, horizon, len(self.manager.nfs)),
            "detection_latency": latency_stats(det),
            "recovery_latency": latency_stats(rec),
        }
