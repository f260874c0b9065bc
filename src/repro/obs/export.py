"""Exporters: Chrome/Perfetto trace-event JSON and Prometheus text.

``write_chrome_trace`` turns recorded :class:`~repro.obs.bus.EventBus`
streams into the Trace Event Format that ``ui.perfetto.dev`` (and
``chrome://tracing``) loads directly: one *process* per scenario, one
*thread* track per simulated core carrying the dispatch→switch-out
slices and wake instants, one *counter* track per packet ring carrying
its depth, and a control track for backpressure / ECN / wakeup /
monitor decisions.

``write_prometheus`` renders a :class:`~repro.obs.registry.MetricsRegistry`
in the Prometheus text exposition format (counters, gauges, and
histograms as quantile summaries).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from repro.obs.bus import EventBus
from repro.obs.registry import MetricsRegistry

#: Synthetic thread ids for non-core tracks (cores use their own ids).
CONTROL_TID = 900


def chrome_trace_events(bus: EventBus, pid: int = 0,
                        label: str = "") -> List[dict]:
    """Flatten one bus into Trace Event Format dicts (``ts`` in µs)."""
    out: List[dict] = [{
        "ph": "M", "name": "process_name", "pid": pid, "ts": 0,
        "args": {"name": label or f"scenario-{pid}"},
    }]
    cores_seen: Dict[int, bool] = {}
    open_runs: Dict[int, Tuple[str, int]] = {}
    control_used = False

    for ev in bus.events:
        kind = ev.kind
        ts = ev.time_ns / 1e3
        if kind == "sched.dispatch":
            core = ev.args["core"]
            cores_seen[core] = True
            open_runs[core] = (ev.source, ev.time_ns)
        elif kind == "sched.switch_out":
            core = ev.args["core"]
            cores_seen[core] = True
            opened = open_runs.pop(core, None)
            if opened is not None:
                task, start = opened
                out.append({
                    "ph": "X", "name": task, "cat": "sched",
                    "pid": pid, "tid": core,
                    "ts": start / 1e3,
                    "dur": max(0.0, (ev.time_ns - start) / 1e3),
                    "args": {"outcome": ev.args.get("detail", ""),
                             "switched_to" if ev.source != task else "task":
                                 ev.source},
                })
        elif kind == "sched.wake":
            core = ev.args["core"]
            cores_seen[core] = True
            out.append({
                "ph": "i", "name": f"wake {ev.source}", "cat": "sched",
                "pid": pid, "tid": core, "ts": ts, "s": "t",
            })
        elif kind.startswith("ring."):
            out.append({
                "ph": "C", "name": f"ring {ev.source}", "cat": "ring",
                "pid": pid, "ts": ts,
                "args": {"depth": ev.args.get("depth", 0)},
            })
        else:
            control_used = True
            args = {"source": ev.source}
            args.update(ev.args)
            out.append({
                "ph": "i", "name": kind, "cat": kind.split(".", 1)[0],
                "pid": pid, "tid": CONTROL_TID, "ts": ts, "s": "t",
                "args": args,
            })

    # A run still open at trace end becomes a slice up to the last event.
    if bus.events:
        t_end = bus.events[-1].time_ns
        for core, (task, start) in open_runs.items():
            out.append({
                "ph": "X", "name": task, "cat": "sched",
                "pid": pid, "tid": core, "ts": start / 1e3,
                "dur": max(0.0, (t_end - start) / 1e3),
                "args": {"outcome": "open-at-trace-end"},
            })

    for core in sorted(cores_seen):
        out.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": core,
            "ts": 0, "args": {"name": f"core {core}"},
        })
    if control_used:
        out.append({
            "ph": "M", "name": "thread_name", "pid": pid,
            "tid": CONTROL_TID, "ts": 0, "args": {"name": "manager control"},
        })
    return out


def write_chrome_trace(
    path: Union[str, Path],
    buses: Sequence[Tuple[str, EventBus]],
) -> Path:
    """Write one or more (label, bus) streams as a single trace file.

    Each bus becomes its own Perfetto process so a grid run (16 fig07
    scenarios) opens as 16 collapsible process groups.
    """
    events: List[dict] = []
    dropped = 0
    for pid, (label, bus) in enumerate(buses):
        events.extend(chrome_trace_events(bus, pid=pid, label=label))
        dropped += bus.dropped
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "events_dropped_at_bus_cap": dropped,
        },
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------
def _escape_label(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _label_str(labels: Dict[str, str], extra: str = "") -> str:
    parts = [f'{k}="{_escape_label(v)}"' for k, v in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text format (version 0.0.4)."""
    lines: List[str] = []
    seen_headers: Dict[str, bool] = {}
    for name, labels, kind, metric in registry.collect():
        if name not in seen_headers:
            seen_headers[name] = True
            help_text = registry.help_for(name)
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            prom_type = {"counter": "counter", "gauge": "gauge",
                         "histogram": "summary"}[kind]
            lines.append(f"# TYPE {name} {prom_type}")
        if kind in ("counter", "gauge"):
            lines.append(f"{name}{_label_str(labels)} {float(metric.value):g}")
        else:  # histogram -> summary with fixed quantiles
            for q in (0.5, 0.95, 0.99):
                value = metric.percentile(q * 100)
                quantile = 'quantile="%g"' % q
                lines.append(
                    f"{name}{_label_str(labels, quantile)} {value:g}")
            lines.append(f"{name}_sum{_label_str(labels)} {metric.total:g}")
            lines.append(f"{name}_count{_label_str(labels)} {metric.count}")
    return "\n".join(lines) + "\n"


def write_prometheus(registry: MetricsRegistry,
                     path: Union[str, Path]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_prometheus(registry))
    return path
