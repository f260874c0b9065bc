"""SIM502 fixture: hot-path enums reached through relative imports.

Relative imports resolve against this file's package (``repro.sched``),
so ``.base``'s ``TaskState`` and ``ExecOutcome`` are the hot enums and
each load inside a function is a finding (two); the module-level alias
is allowed.
"""

from . import base
from .base import TaskState

READY = TaskState.READY                  # allowed: bound once at import


def is_blocked(task) -> bool:
    return task.state is TaskState.BLOCKED   # finding 1


def used_all(result) -> bool:
    return result.outcome is base.ExecOutcome.USED_ALL   # finding 2
