"""Recovery policies: what the manager does about a detected failure.

A policy is bound to the :class:`~repro.faults.injector.FaultInjector`
and receives ``on_detected(nf, incident, now_ns)`` each time the watchdog
flags an NF.  The shipped policies cover the paper-adjacent design space:

=====================  ====================================================
restart-cold           respawn the process with no state: queued packets
                       are lost (``purged`` drops) and the service-time
                       estimator re-warms from the cost model's mean
restart-warm           respawn against the surviving shared-memory ring
                       (OpenNetVM rings outlive the NF process): queued
                       packets are *requeued* — consumed by the new
                       instance — and the estimator history is kept
restart-backpressure   restart-warm, but while the restart is in flight
                       the NF's chains are throttled at the system entry
                       (Figure 5's early discard) instead of shedding at
                       the dead ring — upstream work is never wasted
fail-chain             no restart: permanently throttle every chain
                       through the NF and shed the remainder at its ring
=====================  ====================================================

Entry throttling rides the existing backpressure machinery
(``chain.throttled`` checked by the Rx thread), so shield modes degrade
gracefully to ring-level shedding when backpressure is disabled.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, TYPE_CHECKING

from repro.sim.clock import SEC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.nf import NFProcess
    from repro.faults.injector import FaultInjector, Incident
    from repro.platform.chain import ServiceChain


class RecoveryPolicy:
    """Base class; subclasses implement :meth:`on_detected`."""

    name = "base"

    def __init__(self) -> None:
        self.injector: Optional["FaultInjector"] = None

    def bind(self, injector: "FaultInjector") -> None:
        self.injector = injector

    def on_detected(self, nf: "NFProcess", incident: "Incident",
                    now_ns: int) -> None:
        raise NotImplementedError


class RestartPolicy(RecoveryPolicy):
    """Respawn the NF after ``restart_delay_s``, cold or warm."""

    def __init__(
        self,
        mode: str = "warm",
        shield: str = "drop",
        restart_delay_s: Optional[float] = None,
    ):
        super().__init__()
        if mode not in ("warm", "cold"):
            raise ValueError(f"mode must be 'warm' or 'cold', got {mode!r}")
        if shield not in ("drop", "backpressure"):
            raise ValueError(
                f"shield must be 'drop' or 'backpressure', got {shield!r}")
        self.mode = mode
        self.shield = shield
        #: Overrides the plan's restart_delay_s when set.
        self.restart_delay_s = restart_delay_s
        self.name = f"restart-{mode}" if shield == "drop" \
            else "restart-backpressure"
        self._pending: Set[str] = set()
        self._shielded: Dict[str, List["ServiceChain"]] = {}

    # ------------------------------------------------------------------
    def on_detected(self, nf: "NFProcess", incident: "Incident",
                    now_ns: int) -> None:
        assert self.injector is not None, "policy used before bind()"
        if nf.name in self._pending:
            return
        self._pending.add(nf.name)
        if self.shield == "backpressure":
            self._raise_shield(nf)
        delay_s = (
            self.restart_delay_s if self.restart_delay_s is not None
            else self.injector.plan.restart_delay_s
        )
        self.injector.loop.schedule(
            int(delay_s * SEC), self._restart_cb(nf, incident)
        )

    def _restart_cb(self, nf: "NFProcess",
                    incident: "Incident") -> Callable[[], None]:
        def _restart() -> None:
            inj = self.injector
            assert inj is not None
            now = inj.loop.now
            self._pending.discard(nf.name)
            if nf.core is not None and nf.core.failed:
                # A core failure takes its NFs down together; the first
                # restart restores the core, the rest find it healthy.
                nf.core.repair()
            ring = nf.rx_ring
            if self.mode == "cold":
                # No checkpoint: whatever sat in the ring dies with the
                # old instance.
                incident.packets_lost += ring.purge()
            else:
                # Warm: the shared-memory ring survived; the replacement
                # instance drains what queued up during the outage.
                incident.packets_requeued += len(ring)
            nf.restart(now, cold=(self.mode == "cold"))
            self._drop_shield(nf)
            inj.finish_recovery(nf, incident, now)

        return _restart

    # ------------------------------------------------------------------
    # Backpressure shield: discard at entry, not at the dead ring.
    # ------------------------------------------------------------------
    def _raise_shield(self, nf: "NFProcess") -> None:
        shielded: List["ServiceChain"] = []
        for chain in nf.chains:
            if not chain.throttled:
                chain.throttled = True
                chain.throttle_cause = nf
                shielded.append(chain)
        self._shielded[nf.name] = shielded
        # Arrivals are now shed at entry; stop declaring the ring dead so
        # anything already queued survives for the warm restart.
        nf.rx_ring.dead = False

    def _drop_shield(self, nf: "NFProcess") -> None:
        for chain in self._shielded.pop(nf.name, []):
            if chain.throttle_cause is nf:
                chain.throttled = False
                chain.throttle_cause = None


class FailChainPolicy(RecoveryPolicy):
    """Write the NF off: throttle its chains for good, never restart."""

    name = "fail-chain"

    def on_detected(self, nf: "NFProcess", incident: "Incident",
                    now_ns: int) -> None:
        assert self.injector is not None, "policy used before bind()"
        for chain in nf.chains:
            if not chain.throttled:
                chain.throttled = True
                chain.throttle_cause = nf
        # Stragglers already inside the chain still reach this ring; they
        # keep being shed as nf_dead.
        nf.rx_ring.dead = True
        self.injector.give_up(nf, incident, now_ns)


# ---------------------------------------------------------------------------
# Registry (campaign grids and CLI flags select policies by name).
# ---------------------------------------------------------------------------
RECOVERY_POLICIES: Dict[str, Callable[[], RecoveryPolicy]] = {
    "restart-cold": lambda: RestartPolicy(mode="cold"),
    "restart-warm": lambda: RestartPolicy(mode="warm"),
    "restart-backpressure": lambda: RestartPolicy(mode="warm",
                                                  shield="backpressure"),
    "fail-chain": FailChainPolicy,
}


def make_policy(spec) -> RecoveryPolicy:
    """Resolve a policy instance from an instance or a registry name."""
    if isinstance(spec, RecoveryPolicy):
        return spec
    try:
        factory = RECOVERY_POLICIES[spec]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown recovery policy {spec!r}; expected one of "
            f"{sorted(RECOVERY_POLICIES)} or a RecoveryPolicy instance"
        ) from None
    return factory()
