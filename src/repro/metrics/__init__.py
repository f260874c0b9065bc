"""Measurement infrastructure.

The paper's evaluation reports per-second throughput/drop samples, context
switch counts from ``sar``/``pidstat``, scheduling delay and runtime from
``perf sched``, CPU utilisation, Jain's fairness index and service-time
percentiles.  This package provides the simulator-side equivalents:

* :mod:`~repro.metrics.counters` — monotonic counters.
* :mod:`~repro.metrics.histogram` — cycle histograms with percentile
  estimation and the 100 ms sliding-window median used by the Monitor.
* :mod:`~repro.metrics.timeseries` — time series and interval samplers.
* :mod:`~repro.metrics.fairness` — Jain's fairness index.
* :mod:`~repro.metrics.report` — plain-text table rendering for benches.
"""

from repro.metrics.counters import Counter
from repro.metrics.fairness import jain_index
from repro.metrics.histogram import CycleHistogram, SlidingWindowEstimator
from repro.metrics.report import format_value, render_table
from repro.metrics.timeseries import IntervalSampler, TimeSeries

__all__ = [
    "Counter",
    "jain_index",
    "CycleHistogram",
    "SlidingWindowEstimator",
    "render_table",
    "format_value",
    "TimeSeries",
    "IntervalSampler",
]
