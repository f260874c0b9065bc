"""Scheduler event tracing — the simulator's ``perf sched record``.

Attach a :class:`SchedTracer` to a core through the platform's observer
and every wakeup, dispatch and switch-out is recorded with its timestamp
and reason.  The paper debugs scheduling behaviour with exactly this kind
of trace (Table 4 is built from ``perf sched``); the tracer makes the
reproduction's scheduling decisions equally inspectable:

    tracer = SchedTracer()
    manager.attach_observability(Observer(tracers={core_id: tracer}))
    ...run...
    print(tracer.render_timeline(t0, t1, bucket_ns=1_000_000))
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Event kinds recorded by the tracer.
WAKE = "wake"
DISPATCH = "dispatch"
SWITCH_OUT = "switch_out"


@dataclass
class SchedEvent:
    """One scheduler event."""

    time_ns: int
    core_id: int
    kind: str            # WAKE / DISPATCH / SWITCH_OUT
    task: str
    detail: str = ""     # for SWITCH_OUT: the ExecOutcome value


class SchedTracer:
    """Records scheduler events; renders summaries and ASCII timelines."""

    def __init__(self, max_events: int = 1_000_000):
        self.max_events = int(max_events)
        self.events: List[SchedEvent] = []
        self.dropped = 0

    # ------------------------------------------------------------------
    # Recording (called by the Observer)
    # ------------------------------------------------------------------
    def record(self, time_ns: int, core_id: int, kind: str, task: str,
               detail: str = "") -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(SchedEvent(int(time_ns), core_id, kind, task,
                                      detail))

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def counts(self) -> Dict[Tuple[str, str], int]:
        """(task, kind) -> number of events."""
        out: Dict[Tuple[str, str], int] = defaultdict(int)
        for ev in self.events:
            out[(ev.task, ev.kind)] += 1
        return dict(out)

    def runs(self, core_id: Optional[int] = None) -> List[Tuple[str, int, int, str]]:
        """Dispatch-to-switch-out intervals: (task, start, end, reason).

        The final, still-open run (if any) is omitted.  A malformed pair —
        a DISPATCH answered by a SWITCH_OUT naming a *different* task, or
        two DISPATCHes back to back — closes the open run at the stray
        event's timestamp with reason ``"mismatch:<other task>"`` instead
        of silently discarding the on-CPU time.
        """
        out: List[Tuple[str, int, int, str]] = []
        open_run: Dict[int, Tuple[str, int]] = {}
        for ev in self.events:
            if core_id is not None and ev.core_id != core_id:
                continue
            if ev.kind == DISPATCH:
                if ev.core_id in open_run:
                    task, start = open_run[ev.core_id]
                    out.append((task, start, ev.time_ns,
                                f"mismatch:{ev.task}"))
                open_run[ev.core_id] = (ev.task, ev.time_ns)
            elif ev.kind == SWITCH_OUT and ev.core_id in open_run:
                task, start = open_run.pop(ev.core_id)
                if task == ev.task:
                    out.append((task, start, ev.time_ns, ev.detail))
                else:
                    out.append((task, start, ev.time_ns,
                                f"mismatch:{ev.task}"))
        return out

    def mismatched_runs(self, core_id: Optional[int] = None) -> int:
        """How many runs were closed by a mismatched event (trace bugs)."""
        return sum(1 for _t, _s, _e, reason in self.runs(core_id)
                   if reason.startswith("mismatch:"))

    def runtime_by_task(self, core_id: Optional[int] = None) -> Dict[str, int]:
        """Total traced on-CPU time per task (ns)."""
        out: Dict[str, int] = defaultdict(int)
        for task, start, end, _reason in self.runs(core_id):
            out[task] += end - start
        return dict(out)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render_timeline(self, t0_ns: int, t1_ns: int,
                        bucket_ns: int = 1_000_000,
                        core_id: int = 0) -> str:
        """An ASCII Gantt: one row per task, one column per time bucket.

        A cell shows ``#`` when the task ran for most of the bucket, ``+``
        when it ran at all, ``.`` otherwise.
        """
        if t1_ns <= t0_ns or bucket_ns <= 0:
            raise ValueError("need t1 > t0 and a positive bucket")
        n_buckets = (t1_ns - t0_ns + bucket_ns - 1) // bucket_ns
        per_task: Dict[str, List[int]] = {}
        for task, start, end, _reason in self.runs(core_id):
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
        if self.dropped:
            lines.append(f"({self.dropped} events dropped at the "
                         f"{self.max_events}-event tracer cap)")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.events)
