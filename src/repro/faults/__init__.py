"""Fault injection and resilience for the NFV platform.

NFVnice's mechanisms — backpressure, wakeup eligibility, cgroup weights —
assume NFs that are slow, not NFs that are *gone*.  This package supplies
the missing failure half of the story so chaos experiments can measure how
the platform behaves when an NF crashes, wedges, or loses its ring:

* :mod:`repro.faults.plan` — declarative :class:`FaultPlan` / `FaultSpec`
  (what breaks, when, for how long), JSON/YAML loadable; ``repro run
  --fault-plan`` hands one to every scenario through the run context
  (:class:`repro.experiments.common.RunContext`).
* :mod:`repro.faults.injector` — executes a plan against a live
  :class:`~repro.platform.manager.NFManager` and keeps the incident log.
* :mod:`repro.faults.watchdog` — detection: liveness checks from the
  Monitor core using only externally observable symptoms (ring drain
  progress, backlog, scheduler state), never the injector's ground truth.
* :mod:`repro.faults.recovery` — pluggable recovery policies (cold/warm
  restart, backpressure shielding, fail-the-chain).
* :mod:`repro.faults.metrics` — resilience arithmetic (availability,
  throughput-dip depth/width).
"""

from repro.faults.injector import FaultInjector, Incident
from repro.faults.metrics import availability, throughput_dip
from repro.faults.plan import FAULT_KINDS, FaultPlan, FaultSpec
from repro.faults.recovery import (
    RECOVERY_POLICIES,
    FailChainPolicy,
    RecoveryPolicy,
    RestartPolicy,
    make_policy,
)
from repro.faults.watchdog import Watchdog

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "Incident",
    "Watchdog",
    "RecoveryPolicy",
    "RestartPolicy",
    "FailChainPolicy",
    "RECOVERY_POLICIES",
    "make_policy",
    "availability",
    "throughput_dip",
]
