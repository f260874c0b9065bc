"""Runtime invariant sanitizer (``repro run --sanitize``).

The static half of :mod:`repro.check` keeps nondeterminism out of the
source; this half checks that a *run* obeyed the simulator's conservation
laws.  All checks are exact — integer identities or monotonicity, never
tolerances — so a single lost packet or nanosecond is a violation:

* **packet conservation** — every packet the generator offered is
  delivered, discarded at entry, dropped at a ring, unroutable, or still
  queued somewhere at the horizon.
* **core time accounting** — ``busy_ns + overhead_ns + idle_ns`` equals
  the core's lifetime exactly, in integer nanoseconds.
* **vruntime monotonicity** — a CFS runqueue's ``min_vruntime`` never
  decreases.
* **ring occupancy** — every ring's depth stays within ``[0, capacity]``
  and its flow identity holds: ``enqueued == dequeued + purged + len``,
  ``dropped_total == sum(drops_by_reason)``.
* **ring-descriptor ownership** — every ring's depth equals the sum of
  its segments' counts, every count is positive, and no
  :class:`~repro.platform.packet.PacketSegment` object is queued in two
  places: rings hand descriptors over by reference (zero-copy), so an
  aliased descriptor would count its packets twice.
* **non-negative counters** — no flow/ring/core/task counter underflows.

End-of-run checks are cheap (one pass over the platform's counters and
queued segments).  ``per_tick=True`` additionally samples the
monotonicity, occupancy and ownership checks on a fixed cadence
(default 1 ms — the Monitor's tick), catching transients that a later
compensating bug would mask; cost is one event per tick per run.

Violations are :class:`SanitizerViolation` records surfaced in
``ScenarioResult.sanitizer_violations`` (serialised by
:mod:`repro.analysis.export`, so a violating run changes its digest —
and a clean ``--sanitize`` run digests identically to a normal run).

A run context hands the sanitizer to every scenario a run builds::

    sanitizer = Sanitizer(per_tick=True)
    with RunContext(sanitizer=sanitizer):
        result = scenario.run(...)   # Scenario.run attaches automatically
    assert not result.sanitizer_violations

(:class:`~repro.experiments.common.RunContext`).  The checks walk the
scenario's ``platforms`` — one ``(host name or None, NFManager)`` pair
per platform, shared by ``Scenario`` and ``ClusterScenario`` — and its
fabric ``links``; a cluster host's subjects carry its name
(``ring:h1.nf1.rx``, ``core:h1.0``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["SanitizerViolation", "Sanitizer"]


def _prefixed(platforms: Any) -> Iterator[Tuple[str, Any]]:
    """(subject prefix, NFManager) per platform: ``"<host>."`` on a
    cluster host, ``""`` on a single host (subjects unprefixed)."""
    for host, mgr in platforms:
        yield (f"{host}." if host else ""), mgr


@dataclass(frozen=True)
class SanitizerViolation:
    """One failed invariant.

    ``check`` names the invariant class, ``subject`` the entity
    (``core:0``, ``ring:nf1.rx``, ``flow:f0`` …), ``time_ns`` when it was
    detected (the horizon for end-of-run checks).
    """

    check: str
    subject: str
    message: str
    time_ns: int

    def render(self) -> str:
        return (f"[sanitize] {self.check} {self.subject} "
                f"at t={self.time_ns}ns: {self.message}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "check": self.check,
            "subject": self.subject,
            "message": self.message,
            "time_ns": self.time_ns,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SanitizerViolation":
        return cls(
            check=str(data["check"]),
            subject=str(data["subject"]),
            message=str(data["message"]),
            time_ns=int(data["time_ns"]),
        )


class Sanitizer:
    """Installs the invariant checks on every scenario it is attached to.

    A scenario is any :class:`~repro.experiments.common.ScenarioBase`:
    the checks read its ``platforms``, ``links``, ``generator`` and
    ``loop``.  One sanitizer may serve many sequential scenario runs (a
    sweep grid); ``violations`` accumulates across runs while each
    :class:`~repro.experiments.common.ScenarioResult` carries only its
    own run's records.
    """

    def __init__(self, per_tick: bool = False, tick_ns: int = 1_000_000):
        self.per_tick = per_tick
        self.tick_ns = int(tick_ns)
        #: All violations across every run this sanitizer observed.
        self.violations: List[SanitizerViolation] = []
        self.runs = 0
        self._scenario: Optional[Any] = None
        self._run_violations: List[SanitizerViolation] = []
        #: Keyed by ``(subject prefix, core_id)``; the prefix is "" on a
        #: single host.
        self._min_vruntime_seen: Dict[Tuple[str, int], float] = {}
        self._tick_handle: Optional[Any] = None

    # ------------------------------------------------------------------
    # Run lifecycle (driven by ScenarioBase.run)
    # ------------------------------------------------------------------
    def attach(self, scenario: Any) -> None:
        """Begin observing ``scenario`` (called once, before start)."""
        self._scenario = scenario
        self._run_violations = []
        self._min_vruntime_seen = {}
        if self.per_tick:
            self._tick_handle = scenario.loop.call_every(
                self.tick_ns, self._tick)

    def finish_run(self, scenario: Any) -> List[SanitizerViolation]:
        """Run the end-of-run checks; returns this run's violations."""
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None
        if scenario is not self._scenario:
            # finish without a matching attach (manual use): still check.
            self._run_violations = []
            self._min_vruntime_seen = {}
        now = scenario.loop.now
        self._check_packet_conservation(scenario, now)
        for prefix, mgr in _prefixed(scenario.platforms):
            self._check_time_accounting(mgr, now, prefix)
            self._check_vruntime(mgr, now, prefix)
            self._check_rings(mgr, now, prefix)
        self._check_descriptors(scenario, now)
        self._check_non_negative(scenario, now)
        self.runs += 1
        out = self._run_violations
        self.violations.extend(out)
        self._scenario = None
        self._run_violations = []
        return out

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def _report(self, check: str, subject: str, message: str,
                time_ns: int) -> None:
        self._run_violations.append(
            SanitizerViolation(check, subject, message, time_ns))

    def _tick(self) -> None:
        scenario = self._scenario
        if scenario is None:
            return
        now = scenario.loop.now
        for prefix, mgr in _prefixed(scenario.platforms):
            self._check_vruntime(mgr, now, prefix)
            for name, ring in self._iter_rings(mgr):
                if not 0 <= len(ring) <= ring.capacity:
                    self._report(
                        "ring-occupancy", f"ring:{prefix}{name}",
                        f"depth {len(ring)} outside [0, {ring.capacity}]",
                        now)
        self._check_descriptors(scenario, now)

    @staticmethod
    def _iter_rings(mgr: Any) -> Iterator[Tuple[str, Any]]:
        yield "nic.rx", mgr.nic.rx_ring
        for nf in mgr.nfs:
            yield f"{nf.name}.rx", nf.rx_ring
            yield f"{nf.name}.tx", nf.tx_ring

    def _check_packet_conservation(self, scenario: Any, now: int) -> None:
        delivered = entry = drops = offered = 0
        seen = set()
        for spec in scenario.generator.specs:
            f = spec.flow
            if id(f) in seen:  # two specs may drive one flow object
                continue
            seen.add(id(f))
            offered += f.stats.offered
            delivered += f.stats.delivered
            entry += f.stats.entry_discards
            drops += f.stats.queue_drops
        unroutable = in_flight = 0
        for _prefix, mgr in _prefixed(scenario.platforms):
            if mgr.rx_thread is not None:
                unroutable += mgr.rx_thread.unroutable
            in_flight += sum(
                len(ring) for _n, ring in self._iter_rings(mgr))
        # Packets serialising/propagating on fabric links are neither in
        # a ring nor delivered yet: they are the wire's in-flight.
        in_flight += sum(link.in_flight for link in scenario.links)
        accounted = delivered + entry + drops + unroutable + in_flight
        if offered != accounted:
            self._report(
                "packet-conservation", "platform",
                f"offered {offered} != delivered {delivered} + "
                f"entry_discards {entry} + queue_drops {drops} + "
                f"unroutable {unroutable} + in_flight {in_flight} "
                f"(= {accounted})", now)

    def _check_time_accounting(self, mgr: Any, now: int,
                               prefix: str = "") -> None:
        for core_id, core in sorted(mgr.cores.items()):
            s = core.stats
            for label, value in (("busy_ns", s.busy_ns),
                                 ("overhead_ns", s.overhead_ns),
                                 ("idle_ns", s.idle_ns)):
                if not isinstance(value, int):
                    self._report(
                        "time-accounting", f"core:{prefix}{core_id}",
                        f"{label} is {type(value).__name__}, not int "
                        f"(exactness requires integer nanoseconds)", now)
            lifetime = now - core.epoch_ns
            total = s.busy_ns + s.overhead_ns + s.idle_ns
            if total != lifetime:
                self._report(
                    "time-accounting", f"core:{prefix}{core_id}",
                    f"busy {s.busy_ns} + overhead {s.overhead_ns} + "
                    f"idle {s.idle_ns} = {total} != lifetime {lifetime}",
                    now)

    def _check_vruntime(self, mgr: Any, now: int, prefix: str = "") -> None:
        for core_id, core in sorted(mgr.cores.items()):
            min_vr = getattr(core.scheduler, "min_vruntime", None)
            if min_vr is None:
                continue
            key = (prefix, core_id)
            seen = self._min_vruntime_seen.get(key)
            if seen is not None and min_vr < seen:
                self._report(
                    "vruntime-monotonic", f"core:{prefix}{core_id}",
                    f"min_vruntime decreased {seen!r} -> {min_vr!r}", now)
            self._min_vruntime_seen[key] = min_vr

    def _check_rings(self, mgr: Any, now: int, prefix: str = "") -> None:
        for name, ring in self._iter_rings(mgr):
            subject = f"ring:{prefix}{name}"
            depth = len(ring)
            if not 0 <= depth <= ring.capacity:
                self._report(
                    "ring-occupancy", subject,
                    f"depth {depth} outside [0, {ring.capacity}]", now)
            purged = ring.drops_by_reason.get("purged", 0)
            if ring.enqueued_total != ring.dequeued_total + purged + depth:
                self._report(
                    "ring-occupancy", subject,
                    f"enqueued {ring.enqueued_total} != dequeued "
                    f"{ring.dequeued_total} + purged {purged} + "
                    f"depth {depth}", now)
            by_reason = sum(ring.drops_by_reason.values())
            if ring.dropped_total != by_reason:
                self._report(
                    "ring-occupancy", subject,
                    f"dropped_total {ring.dropped_total} != "
                    f"sum(drops_by_reason) {by_reason}", now)

    def _check_descriptors(self, scenario: Any, now: int) -> None:
        owner: Dict[int, str] = {}
        for prefix, mgr in _prefixed(scenario.platforms):
            for name, ring in self._iter_rings(mgr):
                subject = f"ring:{prefix}{name}"
                total = 0
                for seg in ring._segments:
                    n = seg.count
                    total += n
                    if n <= 0:
                        self._report(
                            "ring-ownership", subject,
                            f"segment count {n} is not positive", now)
                    other = owner.get(id(seg))
                    if other is not None:
                        self._report(
                            "ring-ownership", subject,
                            f"segment {seg!r} is also queued in {other}",
                            now)
                    else:
                        owner[id(seg)] = subject
                if total != len(ring):
                    self._report(
                        "ring-ownership", subject,
                        f"depth {len(ring)} != sum of segment counts "
                        f"{total}", now)

    def _check_non_negative(self, scenario: Any, now: int) -> None:
        counters: List[Tuple[str, str, Any]] = []
        for prefix, mgr in _prefixed(scenario.platforms):
            for core_id, core in sorted(mgr.cores.items()):
                s = core.stats
                subject = f"core:{prefix}{core_id}"
                counters += [
                    (subject, "busy_ns", s.busy_ns),
                    (subject, "overhead_ns", s.overhead_ns),
                    (subject, "idle_ns", s.idle_ns),
                    (subject, "dispatches", s.dispatches),
                ]
            for nf in mgr.nfs:
                t = nf.stats
                counters += [
                    (f"nf:{nf.name}", "runtime_ns", t.runtime_ns),
                    (f"nf:{nf.name}", "voluntary_switches",
                     t.voluntary_switches),
                    (f"nf:{nf.name}", "involuntary_switches",
                     t.involuntary_switches),
                    (f"nf:{nf.name}", "processed_packets",
                     nf.processed_packets),
                    (f"nf:{nf.name}", "wasted_processed",
                     nf.wasted_processed),
                ]
            for name, ring in self._iter_rings(mgr):
                counters += [
                    (f"ring:{prefix}{name}", "enqueued_total",
                     ring.enqueued_total),
                    (f"ring:{prefix}{name}", "dequeued_total",
                     ring.dequeued_total),
                    (f"ring:{prefix}{name}", "dropped_total",
                     ring.dropped_total),
                ]
                counters += [
                    (f"ring:{prefix}{name}", f"drops[{reason}]", count)
                    for reason, count in sorted(ring.drops_by_reason.items())
                ]
        for link in scenario.links:
            counters += [
                (f"link:{link.name}", "carried_packets",
                 link.carried_packets),
                (f"link:{link.name}", "dropped_packets",
                 link.dropped_packets),
                (f"link:{link.name}", "in_flight", link.in_flight),
            ]
        for spec in scenario.generator.specs:
            st = spec.flow.stats
            counters += [
                (f"flow:{spec.flow.flow_id}", "offered", st.offered),
                (f"flow:{spec.flow.flow_id}", "delivered", st.delivered),
                (f"flow:{spec.flow.flow_id}", "entry_discards",
                 st.entry_discards),
                (f"flow:{spec.flow.flow_id}", "queue_drops", st.queue_drops),
            ]
        for subject, label, value in counters:
            if value < 0:
                self._report(
                    "non-negative", subject,
                    f"{label} = {value} underflowed", now)

