"""Unified observability: one typed observer, its sinks, exporters.

The paper diagnoses its scheduler with ``perf sched`` traces and
per-second testbed counters (§4.1, Table 4); this package gives the
reproduction the same visibility:

* :mod:`repro.obs.observer` — the one observation path: components
  report typed events to the ``Observer`` attached with
  ``NFManager.attach_observability``, which forwards them to the sinks.
* :mod:`repro.obs.bus` — the recording event bus behind the Perfetto
  trace.
* :mod:`repro.obs.latency` — exact per-flow, per-chain and per-hop
  latency histograms over every packet, including the per-hop
  queue-wait / service-time breakdown.
* :mod:`repro.obs.causality` — backpressure attribution: which NF's
  throttling cost which flows how much delay.
* :mod:`repro.obs.registry` — named, labelled counters/gauges/histograms.
* :mod:`repro.obs.export` — Chrome/Perfetto trace-event JSON and
  Prometheus text exposition.
* :mod:`repro.obs.session` — ties the above together for CLI runs
  (``python -m repro run fig07 --trace out.json``).

Everything is opt-in: with no observer attached every event site costs
a single ``is not None`` branch and allocates nothing.
"""

from repro.obs.bus import BusEvent, EventBus  # noqa: F401
from repro.obs.export import (  # noqa: F401
    chrome_trace_events,
    render_prometheus,
    write_chrome_trace,
    write_prometheus,
)
from repro.obs.registry import Gauge, MetricsRegistry  # noqa: F401
from repro.obs.session import ObsSession  # noqa: F401
