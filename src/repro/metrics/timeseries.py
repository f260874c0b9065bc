"""Time series and interval sampling.

The paper's bar plots show "the average, the minimum and maximum values
observed across the samples collected every second during the experiment"
(§4.1).  :class:`IntervalSampler` reproduces exactly that workflow: it
snapshots a set of counters every interval and converts deltas to rates.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.clock import SEC
from repro.sim.engine import EventHandle, EventLoop


class TimeSeries:
    """An append-only series of (time_ns, value) points."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str = ""):
        self.name = name
        self.times: List[int] = []
        self.values: List[float] = []

    def append(self, time_ns: int, value: float) -> None:
        if self.times and time_ns < self.times[-1]:
            raise ValueError(
                f"series {self.name!r} is append-only "
                f"({time_ns} < {self.times[-1]})"
            )
        self.times.append(int(time_ns))
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(zip(self.times, self.values))

    # Summary statistics used by the bar plots (avg with min/max whiskers).
    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0

    def min(self) -> float:
        return min(self.values) if self.values else 0.0

    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    def last(self) -> float:
        return self.values[-1] if self.values else 0.0

    def summary(self) -> Tuple[float, float, float]:
        """(mean, min, max) — the triple every bar plot reports."""
        return self.mean(), self.min(), self.max()

    def between(self, t0: int, t1: int) -> "TimeSeries":
        """Sub-series with ``t0 <= time < t1`` (e.g. the UDP-on interval)."""
        out = TimeSeries(self.name)
        for t, v in zip(self.times, self.values):
            if t0 <= t < t1:
                out.append(t, v)
        return out


class IntervalSampler:
    """Samples named probes on a fixed period into :class:`TimeSeries`.

    Probes return a monotonic value; the sampler records either the value
    itself (``rate=False``) or the per-second rate of its delta over the
    sampling interval (``rate=True``), which is how "packets per second"
    figures in the paper are produced.
    """

    def __init__(self, loop: EventLoop, period_ns: int = SEC):
        self.loop = loop
        self.period_ns = int(period_ns)
        self._probes: List[Tuple[str, Callable[[], float], bool]] = []
        self._last: Dict[str, float] = {}
        self.series: Dict[str, TimeSeries] = {}
        self._handle: Optional[EventHandle] = None

    def add_probe(self, name: str, fn: Callable[[], float], rate: bool = True) -> None:
        """Register ``fn``; ``rate=True`` records d(fn)/dt per second."""
        if name in self.series:
            raise ValueError(f"duplicate probe {name!r}")
        self._probes.append((name, fn, rate))
        self.series[name] = TimeSeries(name)
        self._last[name] = float(fn())

    def start(self) -> None:
        self._handle = self.loop.call_every(self.period_ns, self._sample)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()

    def _sample(self) -> None:
        now = self.loop.now
        scale = SEC / self.period_ns
        for name, fn, rate in self._probes:
            value = float(fn())
            if rate:
                delta = value - self._last[name]
                self._last[name] = value
                self.series[name].append(now, delta * scale)
            else:
                self.series[name].append(now, value)

    def __getitem__(self, name: str) -> TimeSeries:
        return self.series[name]
