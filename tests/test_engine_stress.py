"""Stress and edge-case tests for the event loop and its periodic timers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import EventLoop


class TestEventLoopStress:
    def test_many_events_in_order(self, loop):
        import random

        rng = random.Random(7)
        times = [rng.randint(1, 10 ** 9) for _ in range(20_000)]
        fired = []
        for t in times:
            loop.call_at(t, (lambda v: lambda: fired.append(v))(t))
        loop.run()
        assert fired == sorted(times)

    def test_cancel_storm(self, loop):
        handles = [loop.schedule(i + 1, lambda: None) for i in range(10_000)]
        for h in handles[::2]:
            h.cancel()
        assert loop.pending == 5_000
        assert loop.run() == 5_000

    def test_self_rescheduling_chain_terminates_at_horizon(self, loop):
        count = [0]

        def tick():
            count[0] += 1
            loop.schedule(10, tick)

        loop.schedule(10, tick)
        loop.run_until(1_000)
        assert count[0] == 100

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_clock_never_goes_backwards(self, delays):
        loop = EventLoop()
        observed = []
        for d in delays:
            loop.schedule(d, (lambda: observed.append(loop.now)))
        loop.run()
        assert observed == sorted(observed)

    def test_event_scheduled_during_run_until_at_horizon(self, loop):
        fired = []
        loop.call_at(100, lambda: loop.call_at(100, lambda: fired.append(1)))
        loop.run_until(100)
        assert fired == [1]


class TestPeriodicEdgeCases:
    def test_two_processes_same_period_interleave_deterministically(
            self, loop):
        order = []
        loop.call_every(100, lambda: order.append("a"))
        loop.call_every(100, lambda: order.append("b"))
        loop.run_until(300)
        assert order == ["a", "b"] * 3

    def test_stop_inside_other_callback(self, loop):
        order = []

        def killer():
            order.append("a")
            p2.cancel()

        loop.call_every(100, killer)
        p2 = loop.call_every(100, lambda: order.append("b"))
        loop.run_until(250)
        # p2's first tick is cancelled by the killer's same-instant,
        # earlier-armed tick.
        assert order == ["a", "a"]
