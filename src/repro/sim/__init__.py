"""Discrete-event simulation engine.

The engine is the foundation of the NFVnice reproduction: every other
subsystem (cores, schedulers, the NF manager, traffic generators, the disk)
is driven by events on a single nanosecond-resolution event loop.

Public surface:

* :class:`~repro.sim.engine.EventLoop` — the event queue and clock.
* :class:`~repro.sim.engine.EventHandle` — cancellable handle returned by
  ``schedule``/``call_at``, and by ``call_every`` for a callback invoked
  on a fixed period (the manager's Rx/Tx/Wakeup/Monitor threads).
* :mod:`~repro.sim.clock` — time units and cycle conversions.
* :class:`~repro.sim.rng.RngFactory` — deterministic per-component random
  streams.
"""

from repro.sim.clock import (
    CPU_FREQ_HZ,
    MSEC,
    NSEC,
    SEC,
    USEC,
    cycles_to_ns,
    ns_to_cycles,
)
from repro.sim.engine import EventHandle, EventLoop
from repro.sim.rng import RngFactory

__all__ = [
    "CPU_FREQ_HZ",
    "NSEC",
    "USEC",
    "MSEC",
    "SEC",
    "cycles_to_ns",
    "ns_to_cycles",
    "EventLoop",
    "EventHandle",
    "RngFactory",
]
