"""The recording event bus: the Perfetto trace's sink.

One :class:`EventBus` per traced scenario records timestamped events
from every layer — scheduler wake/dispatch/switch, ring enqueue/dequeue/
drop, backpressure state transitions, ECN marks, wakeup posts, monitor
weight writes, fault transitions and fabric-link drops/marks.  Nothing
publishes to it directly: components report typed events to their
:class:`~repro.obs.observer.Observer`, which publishes them here when a
bus is attached.  Kinds are dotted ``layer.action`` strings (the layer
prefix groups events into Perfetto tracks).  Events are recorded in
publish order, which the deterministic event loop makes fully
reproducible run-over-run.

Recording is bounded by ``max_events``; past the cap events still reach
subscribers but are no longer retained, and ``dropped`` counts how many
were discarded so downstream reports cannot silently lie.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.sim.engine import EventLoop


class BusEvent:
    """One published event: when, what, who, and free-form fields."""

    __slots__ = ("time_ns", "kind", "source", "args")

    def __init__(self, time_ns: int, kind: str, source: str, args: Dict):
        self.time_ns = time_ns
        self.kind = kind
        self.source = source
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BusEvent({self.time_ns}, {self.kind!r}, {self.source!r}, "
            f"{self.args!r})"
        )


class EventBus:
    """Collects :class:`BusEvent` records and fans them out to subscribers."""

    def __init__(self, loop: EventLoop, max_events: int = 500_000):
        self.loop = loop
        self.max_events = int(max_events)
        self.events: List[BusEvent] = []
        self.dropped = 0
        self.counts: Dict[str, int] = {}
        self.subscribers: List[Callable[[BusEvent], None]] = []

    # ------------------------------------------------------------------
    def publish(self, kind: str, source: str = "", **args) -> None:
        """Record an event at the loop's current time and notify subscribers."""
        counts = self.counts
        counts[kind] = counts.get(kind, 0) + 1
        ev = BusEvent(self.loop.now, kind, source, args)
        if len(self.events) < self.max_events:
            self.events.append(ev)
        else:
            self.dropped += 1
        for fn in self.subscribers:
            fn(ev)

    def subscribe(self, fn: Callable[[BusEvent], None]) -> None:
        self.subscribers.append(fn)

    # ------------------------------------------------------------------
    def kinds(self) -> List[str]:
        """Distinct kinds published so far (sorted)."""
        return sorted(self.counts)

    def of_kind(self, kind: str) -> List[BusEvent]:
        """Recorded events of one kind, in publish order."""
        return [ev for ev in self.events if ev.kind == kind]

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EventBus({len(self.events)} events, dropped={self.dropped}, "
            f"subscribers={len(self.subscribers)})"
        )
