"""The one observation path: a typed :class:`Observer` per platform.

Every event-emitting component (cores, rings, the Rx/Tx threads, wakeup,
backpressure, ECN, the monitor, the fault injector, fabric links, NFs)
holds one ``obs`` attribute, ``None`` by default, and reports each event
through one typed method, so a run with nothing attached pays one
``is not None`` branch per site::

    if self.obs is not None:
        self.obs.on_ring_drop(self, count, depth, "full")

The observer forwards each event to the sinks it holds: a recording
``bus`` (:class:`~repro.obs.bus.EventBus`, whose ``sched.*`` events are
the one scheduler timeline that :mod:`repro.obs.export` pairs into runs
and renders), a ``latency`` tracker and a ``causality`` tracer.  It
hands a tracker each event through the tracker's public recording method
(``on_hop`` calls ``record_hop``, ``on_delivery`` calls
``record_delivery`` and the tracer's ``on_delivery``); how a tracker
stages and drains samples is its own business.  A new event kind is one
method here plus its call site.  Every sink is observational: digests
are identical with any observer attached.
"""

from __future__ import annotations

from typing import Any, List, Optional


class Observer:
    """Typed event sink forwarding to a bus and trackers."""

    def __init__(self, bus: Any = None, latency: Any = None,
                 causality: Any = None):
        self.bus = bus
        self.latency = latency
        self.causality = causality

    def serving(self, *sinks: str) -> Optional["Observer"]:
        """``self`` if any named sink is attached, else ``None``: what the
        manager hands a component only those sinks consume events of."""
        attached = any(getattr(self, sink) is not None for sink in sinks)
        return self if attached else None

    # ------------------------------------------------------------------
    # Scheduler (sched.core.Core)
    # ------------------------------------------------------------------
    def on_wake(self, core, task, now: int) -> None:
        """``task`` became runnable on ``core`` (semaphore post)."""
        if self.bus is not None:
            self.bus.publish("sched.wake", task.name, core=core.track_id)

    def on_dispatch(self, core, task, now: int) -> None:
        """``task`` was picked and granted a slice; closes a pending
        relinquish-resume gap in the causality tracer."""
        if self.bus is not None:
            self.bus.publish("sched.dispatch", task.name, core=core.track_id)
        if self.causality is not None:
            self.causality.on_dispatch(task.name, now)

    def on_switch_out(self, core, task, outcome, now: int) -> None:
        """``task`` left the CPU with ``outcome`` (an ExecOutcome, or
        ``"killed"``); its value is read only when a bus records it."""
        if self.bus is not None:
            detail = outcome if isinstance(outcome, str) else outcome.value
            self.bus.publish("sched.switch_out", task.name, core=core.track_id,
                             detail=detail)

    # ------------------------------------------------------------------
    # Data path: rings, manager threads, ECN, monitor, backpressure
    # ------------------------------------------------------------------
    def on_ring_enqueue(self, ring, count: int, depth: int) -> None:
        if self.bus is not None:
            self.bus.publish("ring.enqueue", ring.name, count=count,
                             depth=depth)

    def on_ring_dequeue(self, ring, count: int, depth: int) -> None:
        if self.bus is not None:
            self.bus.publish("ring.dequeue", ring.name, count=count,
                             depth=depth)

    def on_ring_drop(self, ring, count: int, depth: int, reason: str) -> None:
        if self.bus is not None:
            self.bus.publish("ring.drop", ring.name, count=count, depth=depth,
                             reason=reason)

    def on_wakeup_post(self, nf) -> None:
        if self.bus is not None:
            self.bus.publish("wakeup.post", nf.name, queued=len(nf.rx_ring))

    def on_entry_discard(self, chain, flow, count: int) -> None:
        """``count`` arrivals for throttled ``chain`` shed at entry."""
        if self.causality is not None:
            self.causality.on_entry_discard(chain.name, flow.flow_id, count)
        if self.bus is not None:
            self.bus.publish("rx.discard", chain.name, count=count,
                             flow=flow.flow_id)

    def on_wasted_drop(self, congested_nf, count: int) -> None:
        """``count`` processed packets died at ``congested_nf``'s ring."""
        if self.causality is not None:
            self.causality.on_wasted_drop(congested_nf.name, count)

    def on_ecn_mark(self, flow, count: int) -> None:
        if self.bus is not None:
            self.bus.publish("ecn.mark", flow.flow_id, count=count)

    def on_monitor_weights(self, nf, core_id: int, shares: int) -> None:
        if self.bus is not None:
            self.bus.publish("monitor.weights", nf.name, core=core_id,
                             shares=shares)

    def on_watch(self, nf) -> None:
        if self.bus is not None:
            self.bus.publish("bp.watch", nf.name, depth=len(nf.rx_ring))

    def on_throttle(self, nf, chains: List[Any], now: int) -> None:
        """``nf`` entered packet-throttle, shedding ``chains`` at entry."""
        if self.causality is not None:
            for chain in chains:
                self.causality.on_throttle(nf.name, chain.name, now)
        if self.bus is not None:
            self.bus.publish("bp.throttle", nf.name,
                             chains=[c.name for c in chains],
                             depth=len(nf.rx_ring))

    def on_reclaim(self, nf, chain, now: int) -> None:
        """Still-congested ``nf`` re-throttled a chain another NF freed."""
        if self.causality is not None:
            self.causality.on_throttle(nf.name, chain.name, now)

    def on_clear(self, nf, chains: List[Any], now: int) -> None:
        """``nf``'s throttle is lifting: of its ``chains``, those it still
        holds are about to be released."""
        if self.causality is not None:
            for chain in chains:
                if chain.throttle_cause is nf:
                    self.causality.on_clear(nf.name, chain.name, now)
        if self.bus is not None:
            self.bus.publish("bp.clear", nf.name,
                             chains=[c.name for c in chains],
                             depth=len(nf.rx_ring))

    def on_relinquish(self, nf, on: bool, now: int) -> None:
        if self.causality is not None:
            self.causality.on_relinquish(nf.name, on, now)
        if self.bus is not None:
            self.bus.publish("bp.relinquish", nf.name, on=on)

    # ------------------------------------------------------------------
    # Telemetry: NF grants and chain completions
    # ------------------------------------------------------------------
    def on_hop(self, nf, segs, n: int, now: int, service_ns: float) -> None:
        """A grant of ``nf`` processed the first ``n`` packets of ``segs``
        (before a ring restamps them), ``service_ns`` each."""
        if self.latency is not None:
            self.latency.record_hop(nf.name, segs, n, now, service_ns)

    def on_delivery(self, flow, chain, origin_ns: int, now: int,
                    count: int) -> None:
        """``count`` packets of ``flow`` that entered at ``origin_ns`` left
        ``chain`` at ``now``."""
        if self.latency is not None:
            self.latency.record_delivery(flow.flow_id, chain.name,
                                         now - origin_ns, count)
        if self.causality is not None:
            self.causality.on_delivery(flow.flow_id, chain.name, origin_ns,
                                       now, count)

    # ------------------------------------------------------------------
    # Fault injection and fabric links
    # ------------------------------------------------------------------
    def on_fault_inject(self, target: str, fault: str, index: int,
                        **detail: int) -> None:
        """Planned fault ``index`` fired on ``target``; ``detail`` is
        ``lost`` (NF faults) or ``tasks`` (core failures)."""
        if self.bus is not None:
            self.bus.publish("fault.inject", target, fault=fault, index=index,
                             **detail)

    def on_fault_heal(self, nf, fault: str, after_ns: int) -> None:
        if self.bus is not None:
            self.bus.publish("fault.heal", nf.name, fault=fault,
                             after_ns=after_ns)

    def on_fault_detect(self, nf, fault: str, latency_ns: int) -> None:
        if self.bus is not None:
            self.bus.publish("fault.detect", nf.name, fault=fault,
                             latency_ns=latency_ns)

    def on_fault_recover(self, nf, fault: str, outage_ns: int, lost: int,
                         requeued: int) -> None:
        if self.bus is not None:
            self.bus.publish("fault.recover", nf.name, fault=fault,
                             outage_ns=outage_ns, lost=lost,
                             requeued=requeued)

    def on_fault_giveup(self, nf, fault: str) -> None:
        if self.bus is not None:
            self.bus.publish("fault.giveup", nf.name, fault=fault)

    def on_link_drop(self, link, count: int, in_flight: int) -> None:
        if self.bus is not None:
            self.bus.publish("link.drop", link.name, count=count,
                             in_flight=in_flight)

    def on_link_ecn(self, link, flow, count: int) -> None:
        if self.bus is not None:
            self.bus.publish("link.ecn", link.name, count=count,
                             flow=flow.flow_id)
