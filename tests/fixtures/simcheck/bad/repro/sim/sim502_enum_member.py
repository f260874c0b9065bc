"""SIM502 fixture: a hot-path enum member loaded inside a function.

One finding (the load in ``is_blocked``); the module-level alias is
allowed and the suppressed line is counted, not reported.
"""

from repro.sched.base import TaskState

BLOCKED = TaskState.BLOCKED              # allowed: bound once at import


def is_blocked(task) -> bool:
    return task.state is TaskState.BLOCKED   # finding 1


def is_blocked_fast(task) -> bool:
    return task.state is BLOCKED


def mark_ready(task) -> None:
    task.state = TaskState.READY  # simcheck: ignore[SIM502]
