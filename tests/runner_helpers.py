"""Module-level callables for campaign-runner tests.

Worker processes import tasks by (module, fn) name, so test doubles for
crash/timeout/flaky behaviour must live in an importable module rather
than as closures inside a test.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path


def ok_text(duration_s: float = 0.0) -> str:
    return f"artifact for {duration_s}"


def boom(duration_s: float = 0.0) -> str:
    raise RuntimeError("deliberate task failure")


def hard_crash(duration_s: float = 0.0) -> str:
    """Die without a traceback or a result file — a segfaulting worker."""
    os.kill(os.getpid(), signal.SIGKILL)
    return "unreachable"  # pragma: no cover


def sleepy(duration_s: float = 0.0, sleep_s: float = 30.0) -> str:
    time.sleep(sleep_s)
    return "finally awake"


def publish_then_hang(conn) -> None:
    """``serve`` double: answer the first spec, then refuse to go on.

    Stands in for a worker whose task finishes right at the timeout
    boundary: the payload is already in the pipe, but the process is still
    alive and busy when the parent's deadline check fires, and it never
    reads the stop message.
    """
    import json

    from repro.runner.worker import run_task_wire

    conn.send_bytes(json.dumps(run_task_wire(conn.recv())).encode())
    time.sleep(30.0)


def flaky(marker_path: str = "", duration_s: float = 0.0) -> str:
    """Fail on the first attempt, succeed on the retry.

    The first call creates ``marker_path`` and raises; the retry sees the
    marker and succeeds — exercising retry-once semantics end to end.
    """
    marker = Path(marker_path)
    if not marker.exists():
        marker.write_text("attempt 1 failed")
        raise RuntimeError("flaky first attempt")
    return "recovered on retry"
