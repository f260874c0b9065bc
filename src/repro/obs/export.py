"""Exporters: Chrome/Perfetto trace-event JSON and Prometheus text.

``write_chrome_trace`` turns recorded :class:`~repro.obs.bus.EventBus`
streams into the Trace Event Format that ``ui.perfetto.dev`` (and
``chrome://tracing``) loads directly: one *process* per scenario, one
*thread* track per simulated core carrying the dispatch→switch-out
slices and wake instants, one *counter* track per packet ring carrying
its depth, and a control track for backpressure / ECN / wakeup /
monitor decisions.

The bus's ``sched.*`` events are the one scheduler timeline, the
simulator's ``perf sched record``.  The Chrome slices, :func:`sched_runs`
and the ASCII Gantt of :func:`render_timeline` all read it through one
dispatch→switch-out pairing.

``write_prometheus`` renders a :class:`~repro.obs.registry.MetricsRegistry`
in the Prometheus text exposition format (counters, gauges, and
histograms as quantile summaries).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.bus import BusEvent, EventBus
from repro.obs.registry import MetricsRegistry

#: Synthetic thread id of the control track (cores use their track ids);
#: a trace with a core track 900 (a cluster's tenth host) moves it past
#: its highest core track.
CONTROL_TID = 900


def _pair_run(open_runs: Dict[int, Tuple[str, int]],
              ev: BusEvent) -> Optional[Tuple[str, int, int, str]]:
    """Feed one ``sched.dispatch``/``sched.switch_out`` event to the
    per-core open runs; return the run it closes as (task, start, end,
    reason), or ``None``.

    A dispatch opens a run and the matching switch-out closes it with its
    ``detail`` (the ExecOutcome value).  A switch-out naming another task,
    or a second dispatch while a run is open, closes the open run at that
    event with reason ``"mismatch:<other task>"`` instead of silently
    discarding its on-CPU time.  A switch-out with no open run closes
    nothing.
    """
    core = ev.args["core"]
    if ev.kind == "sched.dispatch":
        opened = open_runs.get(core)
        open_runs[core] = (ev.source, ev.time_ns)
        if opened is None:
            return None
        reason = f"mismatch:{ev.source}"
    else:
        opened = open_runs.pop(core, None)
        if opened is None:
            return None
        reason = (ev.args.get("detail", "") if opened[0] == ev.source
                  else f"mismatch:{ev.source}")
    task, start = opened
    return task, start, ev.time_ns, reason


def sched_runs(bus: EventBus,
               core_id: int) -> List[Tuple[str, int, int, str]]:
    """Dispatch-to-switch-out intervals on one core: (task, start, end,
    reason), paired as :func:`_pair_run` does.  A run still open at the
    end of the recording is omitted."""
    out: List[Tuple[str, int, int, str]] = []
    open_runs: Dict[int, Tuple[str, int]] = {}
    for ev in bus.events:
        if (ev.kind in ("sched.dispatch", "sched.switch_out")
                and ev.args["core"] == core_id):
            run = _pair_run(open_runs, ev)
            if run is not None:
                out.append(run)
    return out


def render_timeline(bus: EventBus, t0_ns: int, t1_ns: int,
                    bucket_ns: int = 1_000_000, core_id: int = 0) -> str:
    """An ASCII Gantt of one core: one row per task, one column per time
    bucket — the simulator's ``perf sched timehist``.

    A cell shows ``#`` when the task ran for most of the bucket, ``+``
    when it ran at all, ``.`` otherwise.  Events past the bus's cap are
    missing from the picture; a last line then says how many.
    """
    if t1_ns <= t0_ns or bucket_ns <= 0:
        raise ValueError("need t1 > t0 and a positive bucket")
    n_buckets = (t1_ns - t0_ns + bucket_ns - 1) // bucket_ns
    per_task: Dict[str, List[int]] = {}
    for task, start, end, _reason in sched_runs(bus, core_id):
        if end <= t0_ns or start >= t1_ns:
            continue
        row = per_task.setdefault(task, [0] * n_buckets)
        lo = max(start, t0_ns)
        hi = min(end, t1_ns)
        b = (lo - t0_ns) // bucket_ns
        while lo < hi:
            bucket_end = t0_ns + (b + 1) * bucket_ns
            row[b] += min(hi, bucket_end) - lo
            lo = min(hi, bucket_end)
            b += 1
    lines = []
    width = max((len(t) for t in per_task), default=4)
    for task in sorted(per_task):
        cells = []
        for filled in per_task[task]:
            if 2 * filled >= bucket_ns:
                cells.append("#")
            elif filled > 0:
                cells.append("+")
            else:
                cells.append(".")
        lines.append(f"{task.rjust(width)} |{''.join(cells)}|")
    if bus.dropped:
        lines.append(f"({bus.dropped} events dropped at the "
                     f"{bus.max_events}-event bus cap)")
    return "\n".join(lines)


def chrome_trace_events(bus: EventBus, pid: int = 0,
                        label: str = "") -> List[dict]:
    """Flatten one bus into Trace Event Format dicts (``ts`` in µs)."""
    out: List[dict] = [{
        "ph": "M", "name": "process_name", "pid": pid, "ts": 0,
        "args": {"name": label or f"scenario-{pid}"},
    }]
    cores_seen: Dict[int, bool] = {}
    open_runs: Dict[int, Tuple[str, int]] = {}
    control: List[dict] = []

    for ev in bus.events:
        kind = ev.kind
        ts = ev.time_ns / 1e3
        if kind in ("sched.dispatch", "sched.switch_out"):
            core = ev.args["core"]
            cores_seen[core] = True
            run = _pair_run(open_runs, ev)
            if run is not None:
                task, start, end, reason = run
                out.append({
                    "ph": "X", "name": task, "cat": "sched",
                    "pid": pid, "tid": core,
                    "ts": start / 1e3,
                    "dur": max(0.0, (end - start) / 1e3),
                    "args": {"outcome": reason, "task": task},
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
            args = {"source": ev.source}
            args.update(ev.args)
            control.append({
                "ph": "i", "name": kind, "cat": kind.split(".", 1)[0],
                "pid": pid, "tid": CONTROL_TID, "ts": ts, "s": "t",
                "args": args,
            })
            out.append(control[-1])

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
    if control:
        control_tid = (max(cores_seen) + 1 if CONTROL_TID in cores_seen
                       else CONTROL_TID)
        for event in control:
            event["tid"] = control_tid
        out.append({
            "ph": "M", "name": "thread_name", "pid": pid,
            "tid": control_tid, "ts": 0, "args": {"name": "manager control"},
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
