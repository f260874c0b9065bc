"""A catalog of ready-made network functions.

The paper motivates NFVnice with the diversity of real middleboxes: "some
NFs have per-core throughput in the order of million packets per second,
e.g., switches; others have throughputs as low as a few kilo pps, e.g.,
encryption engines" (§2.1).  The factory functions below instantiate
:class:`~repro.core.nf.NFProcess` with representative cost models; the
cycle figures are the ones the evaluation uses where it names them.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.nf import NFProcess
from repro.nfs.cost_models import FixedCost
from repro.platform.config import PlatformConfig
from repro.platform.packet import Flow


def make_nf(
    name: str,
    cycles_per_packet: float,
    config: Optional[PlatformConfig] = None,
    **kwargs,
) -> NFProcess:
    """A generic fixed-cost NF — the building block of most experiments."""
    return NFProcess(name, FixedCost(cycles_per_packet), config=config, **kwargs)


def make_bridge(name: str = "bridge",
                config: Optional[PlatformConfig] = None, **kwargs) -> NFProcess:
    """An L2 bridge: the cheapest NF class (~120 cycles/packet)."""
    return make_nf(name, 120, config, **kwargs)


def make_monitor(name: str = "monitor",
                 config: Optional[PlatformConfig] = None, **kwargs) -> NFProcess:
    """A flow monitor: header inspection plus counters (~270 cycles)."""
    return make_nf(name, 270, config, **kwargs)


def make_firewall(name: str = "firewall",
                  config: Optional[PlatformConfig] = None, **kwargs) -> NFProcess:
    """A rule-matching firewall (~550 cycles/packet)."""
    return make_nf(name, 550, config, **kwargs)


def make_dpi(name: str = "dpi",
             config: Optional[PlatformConfig] = None, **kwargs) -> NFProcess:
    """Deep packet inspection: payload scanning (~2200 cycles/packet)."""
    return make_nf(name, 2200, config, **kwargs)


def make_encryptor(name: str = "encrypt",
                   config: Optional[PlatformConfig] = None, **kwargs) -> NFProcess:
    """An encryption engine: the heaviest class (~4500 cycles/packet)."""
    return make_nf(name, 4500, config, **kwargs)


def make_logger(
    name: str,
    io,
    cycles_per_packet: float = 300,
    io_selector: Optional[Callable[[Flow], bool]] = None,
    config: Optional[PlatformConfig] = None,
    **kwargs,
) -> NFProcess:
    """A packet logger: writes (selected) packets to disk (§4.3.5).

    ``io`` is a Sync/AsyncIOContext; ``io_selector`` restricts which flows
    are logged (default: all).
    """
    return NFProcess(
        name,
        FixedCost(cycles_per_packet),
        config=config,
        io=io,
        io_selector=io_selector,
        **kwargs,
    )


def make_misbehaving(name: str = "spinner",
                     config: Optional[PlatformConfig] = None, **kwargs) -> NFProcess:
    """An NF stuck in a loop that never yields (§2.1's malicious case)."""
    return NFProcess(name, FixedCost(1000), config=config, busy_loop=True,
                     **kwargs)
