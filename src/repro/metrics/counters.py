"""Monotonic counters.

Counters are deliberately dumb: they only accumulate.  Rates and deltas are
derived by :class:`~repro.metrics.timeseries.IntervalSampler`, mirroring how
the paper samples testbed counters once per second.
"""

from __future__ import annotations


class Counter:
    """A single monotonically increasing value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (add {n})")
        self.value += n

    def reset(self) -> None:
        self.value = 0

    def __int__(self) -> int:
        return int(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"
