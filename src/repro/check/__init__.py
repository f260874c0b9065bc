"""Determinism and precision tooling for the reproduction.

Three layers:

* :mod:`repro.check.simcheck` — a static AST lint pass (``repro check``)
  that bans the nondeterminism and float-precision bug classes this
  codebase has actually hit (wall-clock reads, global-RNG use, set
  iteration order leaking into event order, float contamination of
  integer-nanosecond counters, RNG construction outside the seeded
  factory).
* the whole-program analyzer (``repro check --deep``) —
  :mod:`repro.check.graph` links the project import/call graph and
  :mod:`repro.check.flow` runs cross-module passes over it: digest
  taint (SIM6xx, against the :mod:`repro.check.registry` contract),
  interprocedurally lifted SIM101/SIM401 (SIM611/SIM612 with call-chain
  witnesses), and process-pool state safety (SIM7xx).
* :mod:`repro.check.sanitizer` — a runtime invariant sanitizer
  (``repro run --sanitize``) that checks conservation laws at the end of
  (and optionally during) a run: packet conservation, exact per-core
  time accounting, CFS vruntime monotonicity, ring occupancy bounds and
  non-negative counters.

See ``docs/static-analysis.md`` for the rule catalog and policy.
"""

from repro.check.simcheck import (
    Finding,
    check_paths,
    iter_rules,
    run_deep,
)
from repro.check.sanitizer import SanitizerViolation, Sanitizer

__all__ = [
    "Finding",
    "check_paths",
    "iter_rules",
    "run_deep",
    "SanitizerViolation",
    "Sanitizer",
]
