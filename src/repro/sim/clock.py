"""Time units and CPU-cycle conversions.

All simulation time is kept in **integer nanoseconds**.  CPU work is
expressed in cycles (the paper quotes NF costs such as "550 cycles per
packet") and converted through the simulated core frequency.

The default frequency matches the paper's testbed: Intel Xeon E5-2697 v3
@ 2.60 GHz (Section 4.1).
"""

from __future__ import annotations

#: One nanosecond — the base unit of simulated time.
NSEC = 1
#: One microsecond in nanoseconds.
USEC = 1_000
#: One millisecond in nanoseconds.
MSEC = 1_000_000
#: One second in nanoseconds.
SEC = 1_000_000_000

#: Simulated CPU core frequency (Hz); E5-2697 v3 runs at 2.6 GHz.
CPU_FREQ_HZ = 2_600_000_000

#: Cycles elapsed per nanosecond at :data:`CPU_FREQ_HZ`.
CYCLES_PER_NSEC = CPU_FREQ_HZ / SEC


def cycles_to_ns(cycles: float, freq_hz: float = CPU_FREQ_HZ) -> float:
    """Convert a CPU-cycle count to nanoseconds at ``freq_hz``.

    The result is a float; callers that schedule events round up so work
    never takes zero time.
    """
    return cycles * SEC / freq_hz


def ns_to_cycles(ns: float, freq_hz: float = CPU_FREQ_HZ) -> float:
    """Convert nanoseconds to CPU cycles at ``freq_hz``."""
    return ns * freq_hz / SEC


def grid_after(origin: int, period: int, now: int) -> int:
    """The first point of the grid ``origin + k·period`` (``k >= 1``) that
    lies strictly after ``now``.

    A periodic thread started at ``origin`` first fires at
    ``origin + period``; this is where the same thread fires next when it
    is armed late, at ``now``, without shifting its phase.
    """
    return origin + period * max(1, (now - origin) // period + 1)
