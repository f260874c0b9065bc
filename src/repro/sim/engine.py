"""The discrete-event loop: one binary heap of ``(time, sequence, handle)``.

Contract:

* Times are integer nanoseconds.  ``call_at`` rounds up and clamps to
  ``now``; integer times take a fast path that never touches floating
  point, so precision survives past 2**53 ns.
* Events fire strictly in ``(time, sequence)`` order; a monotonically
  increasing sequence number breaks same-instant ties, so runs are fully
  deterministic.
* A periodic handle (:meth:`EventLoop.call_every`) re-arms in place and
  takes its sequence number *before* its callback runs — bit-compatible
  with the cancel+reschedule idiom it replaced.
* Cancellation is lazy: a cancelled handle stays in the heap and is
  skipped when popped, because schedulers and cores re-plan the running
  task frequently.  Once cancelled entries outnumber live ones the heap is
  compacted *in place* (rebinding the list would strand the local alias
  ``run_until`` drains while callbacks cancel).
"""

from __future__ import annotations

#: Digest-safety contract marker, verified by ``repro check --deep``
#: (SIM603) against ``repro.check.registry.MARKED_MODULES``.
__digest_safety__ = "digest-invisible: loop_stats instrumentation only"

import heapq
import math
from typing import Callable, Dict, List, Optional

_heappush = heapq.heappush
_heappop = heapq.heappop
_heapreplace = heapq.heapreplace


class EventHandle:
    """A scheduled callback; ``cancel()`` prevents it from firing.

    ``period`` is 0 for one-shot events; periodic handles (from
    :meth:`EventLoop.call_every`) carry their re-arm interval and stay
    live across fires until cancelled.
    """

    __slots__ = ("time", "period", "callback", "cancelled", "_loop")

    def __init__(self, time: int, callback: Callable[[], None], loop: "EventLoop",
                 period: int = 0):
        self.time = time
        self.period = period
        self.callback = callback
        self.cancelled = False
        self._loop = loop

    def cancel(self) -> None:
        """Mark the event so the loop skips it.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        # Drop the reference so large closures are collectable immediately.
        self.callback = _noop
        self._loop._on_cancel()


def _noop() -> None:
    return None


class EventLoop:
    """Nanosecond-resolution discrete-event loop (see module docstring)."""

    #: Heaps smaller than this are never compacted — the churn would cost
    #: more than the memory it reclaims.
    _COMPACT_MIN_SIZE = 64

    def __init__(self) -> None:
        self.now: int = 0
        self._seq: int = 0
        self._live_events: int = 0
        self._heap: List = []
        # Hygiene counters (exposed as repro.obs gauges and recorded by the
        # perf suite).  Plain int adds; cheap enough for the hot loop.
        self.pushes: int = 0            # inserts, periodic re-arms included
        self.pops: int = 0              # events actually fired
        self.lazy_cancel_skips: int = 0  # dead entries discarded lazily
        self.compactions: int = 0       # in-place heap rebuilds
        self.peak_heap: int = 0         # high-water mark of heap length

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute simulated time ``time`` (ns).

        ``time`` is rounded up to an integer nanosecond and clamped to
        ``now`` so an event can never fire in the past.
        """
        if type(time) is int:
            t = time
        else:
            t = int(math.ceil(time))
        if t < self.now:
            t = self.now
        handle = EventHandle(t, callback, self)
        self._seq += 1
        heap = self._heap
        _heappush(heap, (t, self._seq, handle))
        self._live_events += 1
        self.pushes += 1
        if len(heap) > self.peak_heap:
            self.peak_heap = len(heap)
        return handle

    def call_every(self, period: int, callback: Callable[[], None],
                   first: Optional[int] = None) -> EventHandle:
        """Schedule ``callback`` every ``period`` ns, starting at ``first``
        (default: one period from now).

        Returns a single :class:`EventHandle` that re-arms itself in place
        each fire — ``cancel()`` it to stop the recurrence.  Equivalent in
        firing instants and tie-break order to rescheduling a one-shot
        event from inside its own callback, but without the per-tick
        handle allocation and pop+push heap churn.
        """
        period = int(period)
        if period <= 0:
            raise ValueError(f"period must be positive, got {period!r}")
        if first is None:
            t = self.now + period
        elif type(first) is int:
            t = first
        else:
            t = int(math.ceil(first))
        if t < self.now:
            t = self.now
        handle = EventHandle(t, callback, self, period)
        self._seq += 1
        heap = self._heap
        _heappush(heap, (t, self._seq, handle))
        self._live_events += 1
        self.pushes += 1
        if len(heap) > self.peak_heap:
            self.peak_heap = len(heap)
        return handle

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` after ``delay`` nanoseconds."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        return self.call_at(self.now + delay, callback)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_until(self, t_end: float) -> None:
        """Run events with ``time <= t_end``; the clock finishes at ``t_end``.

        Events scheduled exactly at ``t_end`` *do* run, so periodic samplers
        aligned with the horizon record their final sample.
        """
        if type(t_end) is not int:
            t_end = int(t_end)
        heap = self._heap
        pops = 0
        while heap:
            entry = heap[0]
            t = entry[0]
            if t > t_end:
                break
            handle = entry[2]
            if handle.cancelled:
                _heappop(heap)
                self.lazy_cancel_skips += 1
                continue
            self.now = t
            pops += 1
            period = handle.period
            if period:
                # Re-arm in place: one sift replaces pop+push, and the
                # sequence number is taken before the callback runs.
                self._seq += 1
                handle.time = t + period
                _heapreplace(heap, (handle.time, self._seq, handle))
                self.pushes += 1
            else:
                _heappop(heap)
                # Mark fired so a late cancel() is a no-op instead of a
                # double-decrement of the live counter.
                handle.cancelled = True
                self._live_events -= 1
            handle.callback()
        self.pops += pops
        if self.now < t_end:
            self.now = t_end

    # ------------------------------------------------------------------
    # Heap hygiene
    # ------------------------------------------------------------------
    def _on_cancel(self) -> None:
        """Account a cancel; rebuild the heap once dead entries outnumber
        live ones.

        Every heap entry is either live or cancelled (fired one-shot
        entries are popped, periodic entries stay live until cancelled),
        so the dead count is ``len(heap) - _live_events``.
        """
        self._live_events -= 1
        heap = self._heap
        if len(heap) < self._COMPACT_MIN_SIZE:
            return
        if len(heap) - self._live_events <= len(heap) // 2:
            return
        self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry and restore the heap invariant.

        Compacts *in place*: run_until() holds a local alias to the
        heap list while draining it, and cancel() — hence compaction — runs
        from inside event callbacks.  ``(time, seq)`` keys are unique, so
        the firing order after a rebuild is unchanged.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self.compactions += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) scheduled events."""
        return self._live_events

    def stats_dict(self) -> Dict[str, int]:
        """Loop-hygiene counters; digest-invisible (rides
        ``ScenarioResult.loop_stats``).  ``peak_pending`` is the heap's
        high-water length, cancelled entries included."""
        return {
            "pushes": self.pushes,
            "pops": self.pops,
            "lazy_cancel_skips": self.lazy_cancel_skips,
            "compactions": self.compactions,
            "peak_pending": self.peak_heap,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventLoop(now={self.now}ns, pending={self.pending})"
