"""A registry of named, labelled metrics.

Builds on the existing :mod:`repro.metrics` primitives — ``Counter`` for
monotonic totals, ``CycleHistogram`` for distributions — and adds the
namespace they lack: metrics are addressed by name + label set,
Prometheus style.

Gauges may wrap a callable, which lets the platform expose live state
(ring occupancy, throttle counts) with zero bookkeeping on the data
path: the value is only computed when an exporter or the snapshot
streamer reads it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.metrics.counters import Counter
from repro.metrics.histogram import CycleHistogram

#: A metric's identity: name plus sorted (label, value) pairs.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, str]) -> MetricKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


class Gauge:
    """A point-in-time value: either set explicitly or read from a callable."""

    __slots__ = ("name", "_value", "fn")

    def __init__(self, name: str = "", fn: Optional[Callable[[], float]] = None):
        self.name = name
        self.fn = fn
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        if self.fn is not None:
            return float(self.fn())
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, {self.value})"


class CallbackCounter:
    """A monotonic counter whose value is read from a live callable.

    Like a ``fn``-backed :class:`Gauge` but registered (and exported) with
    Prometheus type ``counter`` — the right type for values that only ever
    grow, such as per-reason ring drop totals, so downstream tooling can
    apply ``rate()`` to them.
    """

    __slots__ = ("name", "fn")

    def __init__(self, name: str = "",
                 fn: Optional[Callable[[], float]] = None):
        self.name = name
        self.fn = fn

    @property
    def value(self) -> float:
        return float(self.fn()) if self.fn is not None else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CallbackCounter({self.name!r}, {self.value})"


class MetricsRegistry:
    """Named counters, gauges and histograms with Prometheus-style labels."""

    def __init__(self) -> None:
        self._metrics: Dict[MetricKey, Tuple[str, object]] = {}
        self._help: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Registration (idempotent: same name+labels returns the same object)
    # ------------------------------------------------------------------
    def _register(self, kind: str, name: str, help: str,
                  labels: Dict[str, str], factory) -> object:
        key = _key(name, labels)
        existing = self._metrics.get(key)
        if existing is not None:
            if existing[0] != kind:
                raise ValueError(
                    f"metric {name!r}{dict(key[1])!r} already registered "
                    f"as {existing[0]}, not {kind}"
                )
            return existing[1]
        if help:
            self._help.setdefault(name, help)
        metric = factory()
        self._metrics[key] = (kind, metric)
        return metric

    def counter(self, name: str, help: str = "",
                fn: Optional[Callable[[], float]] = None, **labels):
        """A monotonic counter; with ``fn`` it reads live state on demand
        (a :class:`CallbackCounter`) instead of accumulating via `add`."""
        if fn is not None:
            counter = self._register("counter", name, help, labels,
                                     lambda: CallbackCounter(name, fn))
            if isinstance(counter, CallbackCounter) and counter.fn is None:
                counter.fn = fn
            return counter
        return self._register("counter", name, help, labels,
                              lambda: Counter(name))

    def gauge(self, name: str, help: str = "",
              fn: Optional[Callable[[], float]] = None, **labels) -> Gauge:
        gauge = self._register("gauge", name, help, labels,
                               lambda: Gauge(name, fn))
        if fn is not None and gauge.fn is None:
            gauge.fn = fn
        return gauge

    def histogram(self, name: str, help: str = "", **labels) -> CycleHistogram:
        return self._register("histogram", name, help, labels,
                              lambda: CycleHistogram())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def collect(self) -> Iterator[Tuple[str, Dict[str, str], str, object]]:
        """Yield (name, labels, kind, metric) for every registered metric."""
        for (name, label_items), (kind, metric) in sorted(
                self._metrics.items()):
            yield name, dict(label_items), kind, metric

    def help_for(self, name: str) -> str:
        return self._help.get(name, "")

    def get(self, name: str, **labels) -> Optional[object]:
        entry = self._metrics.get(_key(name, labels))
        return entry[1] if entry is not None else None

    def scalar_value(self, name: str, **labels) -> float:
        """Current numeric value of a counter or gauge (KeyError if absent)."""
        entry = self._metrics[_key(name, labels)]
        kind, metric = entry
        if kind == "counter":
            return float(metric.value)
        if kind == "gauge":
            return float(metric.value)
        raise ValueError(f"{name!r} is a {kind}, not a scalar")

    def __len__(self) -> int:
        return len(self._metrics)
