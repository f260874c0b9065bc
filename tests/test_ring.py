"""Unit + property tests for the packet descriptor ring."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.chain import ServiceChain
from repro.platform.packet import Flow
from repro.platform.ring import PacketRing


def flow(fid="f", chain=None):
    f = Flow(fid)
    f.chain = chain
    return f


class FakeChain:
    """Stands in for ServiceChain in ring-only tests."""

    def __init__(self, name):
        self.name = name


class TestEnqueueDequeue:
    def test_enqueue_within_capacity(self):
        ring = PacketRing(capacity=100)
        accepted, dropped, hi = ring.enqueue(flow(), 60, now_ns=5)
        assert (accepted, dropped) == (60, 0)
        assert len(ring) == 60
        assert ring.free == 40

    def test_overflow_drops_excess(self):
        ring = PacketRing(capacity=100)
        accepted, dropped, _ = ring.enqueue(flow(), 150, now_ns=0)
        assert (accepted, dropped) == (100, 50)
        assert ring.dropped_total == 50

    def test_drop_counted_on_flow(self):
        ring = PacketRing(capacity=10)
        f = flow()
        ring.enqueue(f, 25, now_ns=0)
        assert f.stats.queue_drops == 15

    def test_zero_count_noop(self):
        ring = PacketRing(capacity=10)
        assert ring.enqueue(flow(), 0, 0) == (0, 0, False)

    def test_dequeue_fifo_order(self):
        ring = PacketRing(capacity=100)
        f1, f2 = flow("f1"), flow("f2")
        ring.enqueue(f1, 10, now_ns=0)
        ring.enqueue(f2, 10, now_ns=1)
        segs = ring.dequeue(15)
        assert [(s.flow.flow_id, s.count) for s in segs] == \
            [("f1", 10), ("f2", 5)]
        assert len(ring) == 5

    def test_partial_dequeue_splits_head(self):
        ring = PacketRing(capacity=100)
        f = flow()
        ring.enqueue(f, 10, now_ns=5)
        rest = ring.peek_head()
        head = ring.dequeue(4)[0]
        assert head is not rest and ring.peek_head() is rest
        assert head.count == 4 and rest.count == 6
        assert head.enqueue_ns == rest.enqueue_ns == 5
        assert head.flow is rest.flow is f

    def test_dequeue_preserves_enqueue_timestamp(self):
        ring = PacketRing(capacity=100)
        ring.enqueue(flow(), 10, now_ns=42)
        seg = ring.dequeue(10)[0]
        assert seg.enqueue_ns == 42

    def test_adjacent_same_flow_same_time_merges(self):
        ring = PacketRing(capacity=100)
        f = flow()
        ring.enqueue(f, 5, now_ns=7)
        ring.enqueue(f, 5, now_ns=7)
        segs = ring.dequeue(100)
        assert len(segs) == 1 and segs[0].count == 10

    def test_counters(self):
        ring = PacketRing(capacity=10)
        ring.enqueue(flow(), 15, 0)
        ring.dequeue(4)
        assert ring.enqueued_total == 10
        assert ring.dropped_total == 5
        assert ring.dequeued_total == 4


class TestWatermarks:
    def test_high_watermark_feedback(self):
        ring = PacketRing(capacity=100, high_watermark=0.8, low_watermark=0.6)
        _, _, hi = ring.enqueue(flow(), 79, 0)
        assert not hi
        _, _, hi = ring.enqueue(flow(), 1, 0)
        assert hi
        assert ring.above_high

    def test_below_low(self):
        ring = PacketRing(capacity=100, high_watermark=0.8, low_watermark=0.6)
        ring.enqueue(flow(), 60, 0)
        assert not ring.below_low
        ring.dequeue(1)
        assert ring.below_low

    def test_invalid_watermarks_rejected(self):
        with pytest.raises(ValueError):
            PacketRing(capacity=100, high_watermark=0.5, low_watermark=0.8)
        with pytest.raises(ValueError):
            PacketRing(capacity=0)

    def test_head_wait(self):
        ring = PacketRing(capacity=10)
        assert ring.head_wait_ns(100) == 0
        ring.enqueue(flow(), 1, now_ns=40)
        assert ring.head_wait_ns(100) == 60

    def test_occupancy(self):
        ring = PacketRing(capacity=100)
        ring.enqueue(flow(), 25, 0)
        assert ring.occupancy() == pytest.approx(0.25)


class TestDropReasons:
    def test_overflow_counted_as_full(self):
        ring = PacketRing(capacity=10)
        ring.enqueue(flow(), 25, 0)
        assert ring.drops_by_reason == {"full": 15}

    def test_sealed_ring_rejects_enqueue_and_dequeue(self):
        ring = PacketRing(capacity=100)
        ring.enqueue(flow(), 10, 0)
        ring.sealed = True
        accepted, dropped, _ = ring.enqueue(flow(), 5, 1)
        assert (accepted, dropped) == (0, 5)
        assert ring.drops_by_reason == {"sealed": 5}
        # Stalled in both directions: the queued packets are stuck too.
        assert ring.dequeue(100) == []
        assert len(ring) == 10
        ring.sealed = False
        assert sum(s.count for s in ring.dequeue(100)) == 10

    def test_dead_ring_sheds_as_nf_dead(self):
        ring = PacketRing(capacity=100)
        f = flow()
        ring.dead = True
        accepted, dropped, _ = ring.enqueue(f, 7, 0)
        assert (accepted, dropped) == (0, 7)
        assert ring.drops_by_reason == {"nf_dead": 7}
        assert f.stats.queue_drops == 7
        # Unlike sealed, a dead ring still drains: recovery policies read
        # (warm) or purge (cold) what the old instance left behind.
        ring.dead = False
        ring.enqueue(f, 3, 1)
        assert sum(s.count for s in ring.dequeue(100)) == 3

    def test_purge_counted_as_purged(self):
        ring = PacketRing(capacity=100)
        f1, f2 = flow("f1", FakeChain("A")), flow("f2", FakeChain("B"))
        ring.enqueue(f1, 10, 0)
        ring.enqueue(f2, 20, 1)
        assert ring.purge() == 30
        assert ring.drops_by_reason == {"purged": 30}
        assert (f1.stats.queue_drops, f2.stats.queue_drops) == (10, 20)

    def test_reasons_sum_to_dropped_total(self):
        ring = PacketRing(capacity=10)
        f = flow("f", FakeChain("A"))
        ring.enqueue(f, 15, 0)            # 5 full drops
        ring.sealed = True
        ring.enqueue(f, 4, 1)             # 4 sealed drops
        ring.sealed = False
        ring.dead = True
        ring.enqueue(f, 3, 2)             # 3 nf_dead drops
        ring.dead = False
        ring.purge()                      # 10 purged
        assert ring.drops_by_reason == {
            "full": 5, "sealed": 4, "nf_dead": 3, "purged": 10}
        assert sum(ring.drops_by_reason.values()) == ring.dropped_total



class TestPurge:
    def test_purge_empties_ring(self):
        ring = PacketRing(capacity=100)
        ring.enqueue(flow(), 42, 0)
        assert ring.purge() == 42
        assert len(ring) == 0
        assert ring.peek_head() is None
        assert ring.purge() == 0
        assert ring.dropped_total == 42


@given(st.lists(st.tuples(st.sampled_from(["enq", "deq"]),
                          st.integers(1, 40)), max_size=80))
@settings(max_examples=120, deadline=None)
def test_packet_conservation_property(ops):
    """enqueued == dequeued + dropped-at-enqueue + still-queued, and the
    queue length never exceeds capacity."""
    ring = PacketRing(capacity=64)
    f = flow()
    for op, n in ops:
        if op == "enq":
            ring.enqueue(f, n, 0)
        else:
            ring.dequeue(n)
        assert 0 <= len(ring) <= ring.capacity
    offered = ring.enqueued_total + ring.dropped_total
    assert ring.enqueued_total == ring.dequeued_total + len(ring)
    assert offered >= ring.enqueued_total


@given(st.lists(st.integers(1, 30), min_size=1, max_size=30),
       st.integers(1, 200))
@settings(max_examples=80, deadline=None)
def test_dequeue_returns_exactly_requested(batches, want):
    ring = PacketRing(capacity=10_000)
    f = flow()
    total = 0
    for t, n in enumerate(batches):
        # distinct timestamps keep segments separate
        ring.enqueue(f, n, now_ns=t)
        total += n
    segs = ring.dequeue(want)
    got = sum(s.count for s in segs)
    assert got == min(want, total)
    assert len(ring) == total - got
