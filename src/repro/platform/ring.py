"""Bounded packet-descriptor rings with watermark feedback.

OpenNetVM connects the manager and NFs through fixed-size DPDK rings; the
Tx thread "enqueues a packet to a NF's Rx queue if the queue is below the
high watermark, while getting feedback about the queue's state in the
return value" (§3.5).  :meth:`PacketRing.enqueue` reproduces exactly that
contract: it accepts what fits, drops the excess, and reports whether the
ring is now above the high watermark.

Drops are accounted *per reason* so experiments can tell congestion from
failure: ``full`` (ring at capacity — the ordinary overload drop),
``sealed`` (a fault stalled the ring; nothing goes in or out), ``nf_dead``
(the manager declared the owning NF dead and sheds its arrivals while
recovery runs), and ``purged`` (a cold restart discarded what the old
instance left queued, see :meth:`PacketRing.purge`).  ``dropped_total``
stays the sum of all four.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.platform.packet import Flow, PacketSegment

#: The drop-reason taxonomy every ring accounts under.
DROP_REASONS = ("full", "sealed", "nf_dead", "purged")

#: Shared empty result for :meth:`PacketRing.drain` misses (never mutated).
_EMPTY_DEQUE: Deque[PacketSegment] = deque()


def _run_of(head: PacketSegment, n: int) -> PacketSegment:
    """A new ``n``-packet descriptor with ``head``'s flow and stamps.

    Bypasses ``__init__``: callers pass ``n > 0`` and integer stamps, so
    validation would be pure overhead on a data-path allocation site.
    """
    seg = PacketSegment.__new__(PacketSegment)
    seg.flow = head.flow
    seg.count = n
    seg.enqueue_ns = head.enqueue_ns
    seg.origin_ns = head.origin_ns
    return seg


class PacketRing:
    """FIFO ring of :class:`PacketSegment` with a hard capacity."""

    def __init__(
        self,
        capacity: int = 4096,
        high_watermark: float = 0.80,
        low_watermark: float = 0.60,
        name: str = "",
        coalesce: bool = True,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 < low_watermark <= high_watermark <= 1.0:
            raise ValueError(
                f"watermarks must satisfy 0 < low <= high <= 1, got "
                f"low={low_watermark}, high={high_watermark}"
            )
        self.name = name
        self.capacity = int(capacity)
        self.high_watermark = int(round(high_watermark * capacity))
        self.low_watermark = int(round(low_watermark * capacity))
        self._segments: Deque[PacketSegment] = deque()
        self._count = 0
        #: Fault states (set by the fault injector / recovery machinery).
        #: A *sealed* ring is stalled: enqueues drop and dequeues return
        #: nothing, as if the shared-memory segment went away.  A *dead*
        #: ring sheds arrivals (the manager knows the owner NF is gone)
        #: but still lets a restarted instance drain what is queued.
        self.sealed = False
        self.dead = False
        # Counters
        self.enqueued_total = 0
        self.dropped_total = 0
        self.dequeued_total = 0
        #: Same-instant tail merging (see :meth:`enqueue`).  Off switch
        #: exists for the property tests that compare coalesced against
        #: uncoalesced behaviour; production rings always coalesce.
        self.coalesce = coalesce
        self.coalesce_hits = 0    # enqueues merged into the tail segment
        self.coalesce_misses = 0  # enqueues that appended a new segment
        #: Drops keyed by reason (see :data:`DROP_REASONS`); values sum to
        #: ``dropped_total``.
        self.drops_by_reason: Dict[str, int] = {}
        #: Optional :class:`repro.obs.observer.Observer`, told of every
        #: enqueue/dequeue/drop with the ring's depth after it.
        self.obs = None

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def free(self) -> int:
        return self.capacity - self._count

    @property
    def above_high(self) -> bool:
        return self._count >= self.high_watermark

    @property
    def below_low(self) -> bool:
        return self._count < self.low_watermark

    def occupancy(self) -> float:
        """Fill fraction in [0, 1]."""
        return self._count / self.capacity

    def head_wait_ns(self, now_ns: int) -> int:
        """Queuing time of the oldest packet (0 when empty)."""
        if not self._segments:
            return 0
        return max(0, int(now_ns) - self._segments[0].enqueue_ns)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def enqueue(self, flow: Flow, count: int, now_ns: int,
                origin_ns: Optional[int] = None) -> Tuple[int, int, bool]:
        """Append up to ``count`` packets of ``flow``.

        ``origin_ns`` carries the packets' first-arrival stamp through the
        chain (defaults to ``now_ns`` for fresh arrivals).  Returns
        ``(accepted, dropped, above_high)`` — the watermark flag is
        evaluated *after* the enqueue, which is the feedback the Tx thread
        uses for overload detection.  A thin wrapper that builds the
        descriptor and hands it to :meth:`admit`.
        """
        if count <= 0:
            return 0, 0, self._count >= self.high_watermark
        now = int(now_ns)
        # Bypass __init__: count > 0 here and the stamps are integers.
        seg = PacketSegment.__new__(PacketSegment)
        seg.flow = flow
        seg.count = count
        seg.enqueue_ns = now
        seg.origin_ns = now if origin_ns is None else int(origin_ns)
        return self.admit(seg, now)

    def admit(self, seg: PacketSegment, now: int) -> Tuple[int, int, bool]:
        """Admit the descriptor ``seg`` (positive count) at integer ``now``.

        Zero-copy hand-off: when the run cannot merge into the tail, the
        ring adopts ``seg`` itself — restamped ``enqueue_ns = now`` and its
        count cut to what fit — instead of allocating a copy.  The caller
        gives up the descriptor: read anything it needs (``enqueue_ns``,
        ``count``) before this call.  Drops, coalescing, counters and
        observer events are those of :meth:`enqueue`, which wraps this.
        """
        cur = self._count
        count = seg.count
        flow = seg.flow
        if self.sealed or self.dead:
            reason = "sealed" if self.sealed else "nf_dead"
            self.dropped_total += count
            self.drops_by_reason[reason] = (
                self.drops_by_reason.get(reason, 0) + count
            )
            flow.stats.queue_drops += count
            if self.obs is not None:
                self.obs.on_ring_drop(self, count, cur, reason)
            return 0, count, cur >= self.high_watermark
        free = self.capacity - cur
        if count <= free:
            accepted = count
            dropped = 0
        else:
            accepted = free
            dropped = count - free
        if accepted > 0:
            segments = self._segments
            tail = segments[-1] if segments else None
            if (
                tail is not None
                and self.coalesce
                and tail.flow is flow
                and tail.enqueue_ns == now
                and tail.origin_ns == seg.origin_ns
            ):
                # Merge back-to-back same-flow arrivals into one segment.
                tail.count += accepted
                self.coalesce_hits += 1
            else:
                seg.count = accepted
                seg.enqueue_ns = now
                segments.append(seg)
                self.coalesce_misses += 1
            cur += accepted
            self._count = cur
            self.enqueued_total += accepted
        if dropped > 0:
            self.dropped_total += dropped
            self.drops_by_reason["full"] = (
                self.drops_by_reason.get("full", 0) + dropped
            )
            flow.stats.queue_drops += dropped
        if self.obs is not None:
            if accepted > 0:
                self.obs.on_ring_enqueue(self, accepted, cur)
            if dropped > 0:
                self.obs.on_ring_drop(self, dropped, cur, "full")
        return accepted, dropped, cur >= self.high_watermark

    def dequeue(self, max_packets: int) -> List[PacketSegment]:
        """Remove up to ``max_packets`` from the head, preserving FIFO order.

        The returned segments keep their original ``enqueue_ns`` so the
        caller can account queuing latency.  Whole head segments are
        handed out as they are; a partial take leaves the head in place
        with its count reduced and allocates only the split-off run.
        """
        if max_packets <= 0 or self.sealed:
            return []
        out: List[PacketSegment] = []
        remaining = max_packets
        segments = self._segments
        taken_total = 0
        while remaining > 0 and segments:
            head = segments[0]
            n = head.count
            if n <= remaining:
                segments.popleft()
                out.append(head)
            else:
                n = remaining
                head.count -= n
                out.append(_run_of(head, n))
            remaining -= n
            taken_total += n
        if taken_total:
            self._count -= taken_total
            self.dequeued_total += taken_total
            if self.obs is not None:
                self.obs.on_ring_dequeue(self, taken_total, self._count)
        return out

    def move_to(self, dst: "PacketRing", n: int, now: int) -> None:
        """Move the oldest ``n`` packets into ``dst`` at integer ``now``.

        Equal to admitting each segment of ``dequeue(n)`` into ``dst`` —
        same ring contents, counters and coalescing — for a caller that
        reserved the space (``n <= len(self)`` and ``n <= dst.free``): the
        NF's fused end-of-grant flush.  Head segments are moved, only a
        partial head is split.  A sealed or dead ring on either side takes
        the per-segment path, which owns the fault drops; observers get
        that path's events either way.
        """
        if self.sealed or dst.sealed or dst.dead:
            admit = dst.admit
            for seg in self.dequeue(n):
                admit(seg, now)
            return
        if self.obs is not None and n:
            self.obs.on_ring_dequeue(self, n, self._count - n)
        dst_obs = dst.obs
        depth = dst._count
        src = self._segments
        out = dst._segments
        tail = out[-1] if out else None
        coalesce = dst.coalesce
        hits = misses = 0
        remaining = n
        seg: Optional[PacketSegment]
        while remaining:
            head = src[0]
            k = head.count
            if k <= remaining:
                src.popleft()
                seg = head
            else:
                k = remaining
                head.count -= k
                seg = None
            remaining -= k
            if (
                tail is not None
                and coalesce
                and tail.flow is head.flow
                and tail.enqueue_ns == now
                and tail.origin_ns == head.origin_ns
            ):
                tail.count += k
                hits += 1
            else:
                if seg is None:
                    seg = _run_of(head, k)
                seg.enqueue_ns = now
                out.append(seg)
                tail = seg
                misses += 1
            if dst_obs is not None:
                depth += k
                dst_obs.on_ring_enqueue(dst, k, depth)
        self._count -= n
        self.dequeued_total += n
        dst._count += n
        dst.enqueued_total += n
        dst.coalesce_hits += hits
        dst.coalesce_misses += misses

    def drain(self) -> "Deque[PacketSegment]":
        """Remove and return every queued segment in FIFO order.

        Equivalent to ``dequeue(len(ring))`` but O(1) in accounting: the
        Tx ferry always takes everything, so no segment is split or
        counted one by one.  Sealed rings yield nothing, like ``dequeue``.
        """
        n = self._count
        if not n or self.sealed:
            return _EMPTY_DEQUE
        segments = self._segments
        self._segments = deque()
        self._count = 0
        self.dequeued_total += n
        if self.obs is not None:
            self.obs.on_ring_dequeue(self, n, 0)
        return segments

    def peek_head(self) -> Optional[PacketSegment]:
        """The oldest segment without removing it (None when empty)."""
        return self._segments[0] if self._segments else None

    def purge(self) -> int:
        """Discard every queued packet; returns the number discarded.

        A cold restart loses whatever the old instance left queued.  Each
        packet is booked on its flow's ``queue_drops`` and under reason
        ``purged``, so packet conservation and the ring identity
        ``enqueued == dequeued + purged + depth`` keep holding.
        """
        dropped = self._count
        if not dropped:
            return 0
        for seg in self._segments:
            seg.flow.stats.queue_drops += seg.count
        self._segments = deque()
        self._count = 0
        self.dropped_total += dropped
        self.drops_by_reason["purged"] = (
            self.drops_by_reason.get("purged", 0) + dropped
        )
        if self.obs is not None:
            self.obs.on_ring_drop(self, dropped, 0, "purged")
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PacketRing({self.name!r}, {self._count}/{self.capacity}, "
            f"hi={self.high_watermark}, lo={self.low_watermark})"
        )
