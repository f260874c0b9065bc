"""Unit tests for periodic timers (``EventLoop.call_every``)."""

import pytest

from repro.metrics.timeseries import IntervalSampler


def test_fires_on_period(loop):
    """Without ``first``, the grid starts one period after arming."""
    ticks = []
    loop.run_until(50)
    loop.call_every(100, lambda: ticks.append(loop.now))
    loop.run_until(400)
    assert ticks == [150, 250, 350]


def test_stop_halts_firing(loop):
    ticks = []
    handle = loop.call_every(100, lambda: ticks.append(loop.now))
    loop.run_until(250)
    handle.cancel()
    handle.cancel()  # idempotent: the live count drops once
    loop.run_until(1000)
    assert ticks == [100, 200]
    assert loop.pending == 0


def test_restart_after_stop(loop):
    """A fresh recurrence after a cancel runs on its own grid."""
    ticks = []
    handle = loop.call_every(100, lambda: ticks.append(loop.now))
    loop.run_until(150)
    handle.cancel()
    loop.run_until(400)
    loop.call_every(100, lambda: ticks.append(loop.now))
    loop.run_until(600)
    assert ticks == [100, 500, 600]


def test_explicit_start_time(loop):
    """A fractional ``first`` rounds up to the next whole ns."""
    ticks = []
    loop.call_every(100, lambda: ticks.append(loop.now), first=4.2)
    loop.run_until(210)
    assert ticks == [5, 105, 205]


def test_callback_may_stop_process(loop):
    ticks = []
    handle = loop.call_every(100, lambda: (ticks.append(loop.now),
                                           handle.cancel()))
    loop.run_until(1000)
    assert ticks == [100]
    assert loop.pending == 0


def test_zero_period_rejected(loop):
    """A sampler rejects a zero period when it arms its timer."""
    with pytest.raises(ValueError, match="period"):
        IntervalSampler(loop, 0).start()
