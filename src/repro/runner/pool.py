"""A crash-isolated pool of persistent campaign workers.

Up to ``workers`` long-lived worker processes (fork where the platform has
it, spawn otherwise) are started lazily, one per busy slot, and each runs
task after task: the parent sends a wire spec down the worker's pipe and
the worker answers with the payload as JSON text.  Keeping workers alive
means every module a task imports lazily is imported once per worker, not
once per task.

Crash isolation is still per task attempt.  Unlike
``concurrent.futures.ProcessPoolExecutor`` — where one dying worker breaks
the whole pool — a worker that dies mid-task (or whose pipe hits EOF)
fails only the attempt it was running, and a worker that overruns the
per-task timeout is terminated.  Either way the parent forks a fresh
worker for the next task, so a dead or hung process never takes another
task with it.

Failure semantics: every task gets at most two attempts (retry-once).  An
attempt fails by raising (the worker reports an ``error`` payload), by
exceeding the per-task timeout (the parent terminates the worker), or by
the worker dying without sending a result (crash).  A result already
readable when the deadline check runs is honoured: the task finished, and
only its reading was late.  The second failure marks the task failed and
the campaign carries on.

Results are returned **in task order** regardless of completion order, so
downstream aggregation is bit-identical to a serial run.  Before
``run_tasks`` returns (or raises) every worker is stopped and reaped, so
the workers' CPU time shows up in ``RUSAGE_CHILDREN``.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Callable, Dict, List, Optional, Tuple

from repro.runner.tasks import TaskSpec
from repro.runner.worker import serve

#: How long stopped workers get to exit before they are terminated.
_STOP_GRACE_S = 1.0


@dataclass
class TaskOutcome:
    """What happened to one task across its (up to two) attempts."""

    spec: TaskSpec
    status: str                      # "ok" | "error" | "timeout" | "crashed"
    payload: Optional[dict] = None   # worker payload when status == "ok"
    wall_s: float = 0.0              # in-worker execution time (last attempt)
    attempts: int = 0
    error: Optional[str] = None
    statuses: List[str] = field(default_factory=list)  # per-attempt history

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def default_start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class _Worker:
    """One worker process, the parent's end of its pipe, and its task."""

    def __init__(self, ctx) -> None:
        self.conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(target=serve, args=(child_conn,), daemon=True)
        self.proc.start()
        child_conn.close()   # so a dead worker reads as EOF on self.conn
        #: (index, attempt, deadline) while busy, None while idle.
        self.task: Optional[Tuple[int, int, float]] = None

    def assign(self, index: int, attempt: int, wire: dict,
               timeout_s: float) -> None:
        self.task = (index, attempt, time.monotonic() + timeout_s)
        try:
            self.conn.send(wire)
        except OSError:     # died while idle: the EOF reports it as a crash
            pass

    def result(self) -> Tuple[str, Optional[dict], Optional[str]]:
        """Read the answer to the current task (the pipe must be ready)."""
        try:
            payload = json.loads(self.conn.recv_bytes())
        except (EOFError, OSError):
            self.kill()
            return "crashed", None, self.died()
        if payload.get("kind") == "error":
            return "error", None, payload.get("error", "unknown task error")
        return "ok", payload, None

    def died(self) -> str:
        return f"worker died without a result (exit code {self.proc.exitcode})"

    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(5.0)
            if self.proc.is_alive():    # pragma: no cover - stuck in kernel
                self.proc.kill()
        self.proc.join()
        self.conn.close()


def run_tasks(
    specs: List[TaskSpec],
    workers: int = 1,
    timeout_s: float = 600.0,
    start_method: Optional[str] = None,
    on_done: Optional[Callable[[TaskOutcome], None]] = None,
) -> List[TaskOutcome]:
    """Run ``specs`` across ``workers`` processes; results in spec order."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if timeout_s <= 0:
        raise ValueError(f"timeout_s must be positive, got {timeout_s}")
    ctx = multiprocessing.get_context(start_method or default_start_method())
    outcomes: List[Optional[TaskOutcome]] = [None] * len(specs)
    history: Dict[int, List[str]] = {i: [] for i in range(len(specs))}
    queue = deque((i, 1) for i in range(len(specs)))  # (index, attempt#)
    pool: List[_Worker] = []

    def finish(index: int, attempt: int, status: str, payload: Optional[dict],
               error: Optional[str]) -> None:
        history[index].append(status)
        if status != "ok" and attempt == 1:
            queue.append((index, 2))    # retry-once
            return
        outcomes[index] = TaskOutcome(
            spec=specs[index],
            status=status,
            payload=payload if status == "ok" else None,
            wall_s=(payload or {}).get("wall_s", 0.0),
            attempts=attempt,
            error=error,
            statuses=list(history[index]),
        )
        if on_done is not None:
            on_done(outcomes[index])

    try:
        while True:
            while queue:
                worker = next((w for w in pool if w.task is None), None)
                if worker is None:
                    if len(pool) == workers:
                        break
                    worker = _Worker(ctx)
                    pool.append(worker)
                index, attempt = queue.popleft()
                worker.assign(index, attempt, specs[index].to_wire(),
                              timeout_s)
            busy = [w for w in pool if w.task is not None]
            if not busy:
                break
            nearest = min(w.task[2] for w in busy)
            wait([w.conn for w in busy] + [w.proc.sentinel for w in busy],
                 timeout=max(0.0, nearest - time.monotonic()))
            for worker in busy:
                index, attempt, deadline = worker.task
                if worker.conn.poll():
                    # A readable answer wins over the deadline; EOF here
                    # means the worker died mid-task.
                    status, payload, error = worker.result()
                elif not worker.proc.is_alive():
                    worker.kill()
                    status, payload, error = "crashed", None, worker.died()
                elif time.monotonic() >= deadline:
                    worker.kill()
                    status, payload, error = (
                        "timeout", None,
                        f"exceeded {timeout_s:g}s task timeout")
                else:
                    continue
                worker.task = None
                if status in ("crashed", "timeout"):
                    pool.remove(worker)     # replaced by a fresh fork
                finish(index, attempt, status, payload, error)
    finally:
        _stop(pool)
    assert all(o is not None for o in outcomes)
    return outcomes  # type: ignore[return-value]


def _stop(pool: List[_Worker]) -> None:
    """Ask every worker to exit, then reap it (terminating stragglers)."""
    for worker in pool:
        try:
            worker.conn.send(None)
        except OSError:
            pass
    grace_end = time.monotonic() + _STOP_GRACE_S
    for worker in pool:
        worker.proc.join(max(0.0, grace_end - time.monotonic()))
        worker.kill()
