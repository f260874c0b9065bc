"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import types

import pytest

from repro.platform.config import PlatformConfig
from repro.sim.engine import EventLoop


#: The two loop variants every ``loop`` test runs under: a stock
#: EventLoop, and one that compacts its heap after every cancel, so
#: in-place compaction runs under every test and any firing-order change
#: it could cause fails one.  The ids date from when the suite ran a
#: second, timer-wheel engine and are kept so test names stay stable.
LOOP_VARIANTS = (STOCK, COMPACTING) = ("heap", "wheel")

_stock_on_cancel = EventLoop._on_cancel


def compacting_on_cancel(self: EventLoop) -> None:
    """``EventLoop._on_cancel`` that also compacts after every cancel."""
    _stock_on_cancel(self)
    self._compact()


@pytest.fixture(params=LOOP_VARIANTS)
def loop(request) -> EventLoop:
    """A fresh EventLoop, once per variant in :data:`LOOP_VARIANTS`."""
    loop = EventLoop()
    if request.param == COMPACTING:
        loop._on_cancel = types.MethodType(compacting_on_cancel, loop)
    return loop


@pytest.fixture
def config() -> PlatformConfig:
    """A small, fast configuration for unit tests.

    Framework overhead is disabled so tests can reason about exact cycle
    arithmetic; rings are small so watermark behaviour is cheap to reach.
    """
    return PlatformConfig(
        ring_capacity=256,
        nf_overhead_cycles=0.0,
        rx_thread_max_pps=None,
    )


@pytest.fixture
def default_config() -> PlatformConfig:
    """Same as ``config`` but with every NFVnice feature off."""
    return PlatformConfig(
        ring_capacity=256,
        nf_overhead_cycles=0.0,
        rx_thread_max_pps=None,
        enable_backpressure=False,
        enable_cgroups=False,
        enable_relinquish=False,
        enable_ecn=False,
    )


def make_flow(flow_id="f0", chain=None, pkt_size=64, protocol="udp"):
    from repro.platform.packet import Flow

    flow = Flow(flow_id, pkt_size=pkt_size, protocol=protocol)
    flow.chain = chain
    return flow
