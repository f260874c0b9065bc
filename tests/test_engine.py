"""Unit tests for the discrete-event loop."""

import gc
import weakref

import pytest

from repro.sim.engine import EventLoop, _noop

#: Past every event these tests schedule.
HORIZON = 10**12


class TestScheduling:
    def test_starts_at_zero(self, loop):
        assert loop.now == 0
        assert loop.pending == 0

    def test_schedule_and_step(self, loop):
        fired = []
        loop.schedule(100, lambda: fired.append(loop.now))
        assert loop.pending == 1
        loop.run_until(100)
        assert fired == [100]
        assert loop.now == 100
        assert loop.pending == 0

    def test_call_at_absolute_time(self, loop):
        fired = []
        loop.call_at(500, lambda: fired.append(loop.now))
        loop.run_until(1000)
        assert fired == [500]

    def test_negative_delay_rejected(self, loop):
        with pytest.raises(ValueError):
            loop.schedule(-1, lambda: None)

    def test_past_call_at_clamped_to_now(self, loop):
        loop.run_until(100)
        fired = []
        loop.call_at(50, lambda: fired.append(loop.now))
        loop.run_until(101)
        assert fired == [100]

    def test_fractional_time_rounds_up(self, loop):
        handle = loop.schedule(10.2, lambda: None)
        assert handle.time == 11

    def test_events_fire_in_time_order(self, loop):
        order = []
        loop.schedule(300, lambda: order.append(3))
        loop.schedule(100, lambda: order.append(1))
        loop.schedule(200, lambda: order.append(2))
        loop.run_until(HORIZON)
        assert order == [1, 2, 3]

    def test_same_time_fifo_order(self, loop):
        order = []
        for i in range(5):
            loop.schedule(100, (lambda v: lambda: order.append(v))(i))
        loop.run_until(HORIZON)
        assert order == [0, 1, 2, 3, 4]

    def test_event_can_schedule_more_events(self, loop):
        fired = []

        def chain():
            fired.append(loop.now)
            if len(fired) < 3:
                loop.schedule(10, chain)

        loop.schedule(10, chain)
        loop.run_until(HORIZON)
        assert fired == [10, 20, 30]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, loop):
        fired = []
        handle = loop.schedule(100, lambda: fired.append(1))
        handle.cancel()
        loop.run_until(HORIZON)
        assert fired == []

    def test_cancel_is_idempotent(self, loop):
        handle = loop.schedule(100, lambda: None)
        handle.cancel()
        handle.cancel()
        assert loop.pending == 0

    def test_cancel_updates_pending_count(self, loop):
        handles = [loop.schedule(100 + i, lambda: None) for i in range(10)]
        assert loop.pending == 10
        for h in handles[:4]:
            h.cancel()
        assert loop.pending == 6

    def test_cancel_one_of_two_same_time(self, loop):
        fired = []
        h1 = loop.schedule(100, lambda: fired.append(1))
        loop.schedule(100, lambda: fired.append(2))
        h1.cancel()
        loop.run_until(HORIZON)
        assert fired == [2]


class TestLazyCancelAccounting:
    """Edge cases of lazy cancellation: counters, same-instant ordering,
    reference release, and heap compaction."""

    def test_live_events_never_negative(self, loop):
        handles = [loop.schedule(100 + i, lambda: None) for i in range(8)]
        for h in handles:
            h.cancel()
            h.cancel()     # idempotent: second cancel must not re-decrement
            assert loop.pending >= 0
        assert loop.pending == 0
        loop.run_until(HORIZON)
        assert loop.pending == 0

    def test_cancel_after_fire_is_noop(self, loop):
        handle = loop.schedule(100, lambda: None)
        loop.run_until(HORIZON)
        assert loop.pending == 0
        handle.cancel()            # late cancel of a fired handle
        assert loop.pending == 0   # must not drive the counter negative

    def test_cancel_then_reschedule_same_timestamp(self, loop):
        """A cancelled handle is skipped even when a fresh event lands at
        the exact same instant (the re-plan idiom in Core dispatch)."""
        fired = []
        stale = loop.schedule(100, lambda: fired.append("stale"))
        stale.cancel()
        loop.schedule(100, lambda: fired.append("fresh"))
        loop.run_until(100)
        assert fired == ["fresh"]
        assert loop.now == 100

    def test_cancel_during_same_instant_callback(self, loop):
        """An event cancelled by an earlier event at the same timestamp
        must not fire."""
        fired = []
        second = loop.schedule(100, lambda: fired.append(2))

        def first():
            fired.append(1)
            second.cancel()

        loop.call_at(100, first)
        loop.run_until(HORIZON)
        # `second` was scheduled before `first` so it fires first; FIFO
        # order at equal timestamps is by scheduling sequence.
        assert fired == [2, 1]

    def test_earlier_scheduled_event_can_cancel_later_same_instant(self, loop):
        fired = []
        hit = []

        def first():
            fired.append("first")
            hit[0].cancel()

        loop.schedule(100, first)
        hit.append(loop.schedule(100, lambda: fired.append("second")))
        loop.run_until(HORIZON)
        assert fired == ["first"]

    def test_cancel_releases_callback_reference(self, loop):
        class Payload:
            pass

        payload = Payload()
        ref = weakref.ref(payload)
        handle = loop.schedule(100, lambda payload=payload: None)
        del payload
        gc.collect()
        assert ref() is not None       # closure keeps it alive while live
        handle.cancel()
        gc.collect()
        assert ref() is None           # cancel drops the closure immediately
        assert handle.callback is _noop

    def test_compaction_bounds_heap_in_replan_heavy_run(self):
        """The re-plan pattern — schedule far ahead, cancel, repeat — must
        not grow the heap without bound."""
        loop = EventLoop()
        keeper = loop.schedule(10**9, lambda: None)  # one long-lived event
        for i in range(10_000):
            handle = loop.schedule(10**6 + i, lambda: None)
            handle.cancel()
        assert loop.pending == 1
        # Without compaction the heap would hold ~10_001 entries.
        assert len(loop._heap) <= EventLoop._COMPACT_MIN_SIZE
        keeper.cancel()

    def test_compaction_preserves_event_order(self, loop):
        """Compaction mid-stream must not perturb firing order."""
        fired = []
        for i in range(200):
            loop.schedule(1000 + i, (lambda v: lambda: fired.append(v))(i))
        # Cancel every odd event to trigger at least one compaction.
        cancels = [loop.schedule(5000 + i, lambda: None) for i in range(300)]
        for h in cancels:
            h.cancel()
        loop.run_until(HORIZON)
        assert fired == list(range(200))
        assert loop.pending == 0

    def test_compaction_in_callback_during_run_until(self, loop):
        """Regression: cancel() runs from event callbacks, and run_until()
        holds a local alias to the heap list while draining it.  Compaction
        must therefore rebuild the heap in place — a rebind would strand the
        drain loop on the stale list and silently drop every event scheduled
        after the compaction."""
        fired = []
        victims = [loop.schedule(10**6 + i, lambda: None) for i in range(200)]

        def replan():
            for h in victims:     # >half the heap dead -> compaction fires
                h.cancel()
            loop.schedule(10, lambda: fired.append("after"))

        loop.schedule(5, replan)
        loop.run_until(1000)
        assert fired == ["after"]
        assert loop.pending == 0

    def test_small_heaps_are_not_compacted(self):
        """Below the size floor the heap keeps dead entries (cheaper)."""
        loop = EventLoop()
        live = loop.schedule(100, lambda: None)
        dead = [loop.schedule(200 + i, lambda: None) for i in range(10)]
        for h in dead:
            h.cancel()
        assert len(loop._heap) == 11
        assert loop.pending == 1
        live.cancel()


class TestRunUntil:
    def test_clock_advances_to_horizon(self, loop):
        loop.run_until(12345)
        assert loop.now == 12345

    def test_event_at_horizon_fires(self, loop):
        fired = []
        loop.schedule(100, lambda: fired.append(1))
        loop.run_until(100)
        assert fired == [1]

    def test_event_after_horizon_does_not_fire(self, loop):
        fired = []
        loop.schedule(101, lambda: fired.append(1))
        loop.run_until(100)
        assert fired == []
        assert loop.pending == 1

    def test_run_until_resumable(self, loop):
        fired = []
        loop.schedule(150, lambda: fired.append(loop.now))
        loop.run_until(100)
        assert fired == []
        loop.run_until(200)
        assert fired == [150]
