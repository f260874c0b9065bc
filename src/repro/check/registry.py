"""The digest-safety registry: the single source of truth for what the
campaign digest covers.

Every invariant the whole-program analyzer (:mod:`repro.check.flow`)
enforces is *declared* here rather than scattered through rule code:

* which :class:`~repro.experiments.common.ScenarioResult` fields are
  **digest-checked** (canonicalised by
  :func:`repro.analysis.export.result_to_dict` and hashed by
  :func:`repro.runner.digest.digest_of`) and which are
  **digest-invisible** (telemetry that must never perturb a digest);
* which callables *produce* digest-invisible payloads, so a value that
  flows from one of them into a digest-checked field is a statically
  detectable leak (rule SIM601);
* which modules must carry an explicit ``__digest_safety__`` marker
  (rule SIM603), so the contract is visible at the definition site;
* which functions are sanctioned RNG constructors (rule SIM612);
* which module-level globals are *deliberately* process-local mutable
  state (the CLI's run context), exempting them from the pool-safety
  rules SIM701/SIM702.

Adding a ``ScenarioResult`` field without declaring it in exactly one of
the two field sets fails ``repro check --deep`` (SIM602) *and* the
registry unit tests — staged adoption happens through this file, never
through inline suppressions.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Tuple

__all__ = [
    "DIGEST_CHECKED_FIELDS",
    "DIGEST_INVISIBLE_FIELDS",
    "TELEMETRY_EXPORT_FIELDS",
    "TELEMETRY_GATES",
    "SIBLING_KEYS",
    "DIGEST_PAYLOAD_BUILDERS",
    "INVISIBLE_PRODUCERS",
    "MARKED_MODULES",
    "RNG_SANCTIONED",
    "RNG_SANCTIONED_PREFIXES",
    "PROCESS_LOCAL_STATE",
    "RUNTIME_PREFIXES",
    "validate_fields",
]

# ----------------------------------------------------------------------
# ScenarioResult field partition
# ----------------------------------------------------------------------
#: Fields serialised by ``result_to_dict`` into the digest payload.  A
#: change to any of these values changes every campaign digest.
DIGEST_CHECKED_FIELDS: FrozenSet[str] = frozenset({
    "scheduler",
    "features",
    "duration_s",
    "total_throughput_pps",
    "total_wasted_pps",
    "total_entry_discard_pps",
    "chains",
    "nfs",
    "core_utilization",
    "series",
    "sched_trace_dropped",
    "resilience",
    "sanitizer_violations",
})

#: Telemetry fields that must NEVER enter the digest payload: campaigns
#: are digest-identical with telemetry on or off.
DIGEST_INVISIBLE_FIELDS: FrozenSet[str] = frozenset({
    "loop_stats",
    "flow_latency",
    "causality",
    "slo",
})

#: The digest-invisible subset allowed to ride *next to* the digest
#: payload (the worker's sibling ``telemetry`` key, or the
#: ``include_telemetry=True`` archive path).
TELEMETRY_EXPORT_FIELDS: FrozenSet[str] = frozenset({
    "flow_latency",
    "causality",
})

#: Parameter names that gate a telemetry branch inside a payload
#: builder.  A digest-invisible read under an ``if <gate>:`` guard is an
#: explicit opt-in, not a leak.
TELEMETRY_GATES: FrozenSet[str] = frozenset({"include_telemetry"})

#: Payload keys that live *beside* the digested ``value`` (the campaign
#: digest hashes only ``payload["value"]``).
SIBLING_KEYS: FrozenSet[str] = frozenset({"telemetry"})

# ----------------------------------------------------------------------
# Digest payload builders and invisible producers
# ----------------------------------------------------------------------
#: Fully qualified names of the functions that build the canonical
#: digest payload.  The taint pass analyses these plus everything they
#: transitively call; functions that call
#: ``repro.runner.digest.digest_of``/``canonical_json`` are added
#: structurally.
DIGEST_PAYLOAD_BUILDERS: FrozenSet[str] = frozenset({
    "repro.analysis.export.result_to_dict",
    "repro.runner.worker._encode_result",
})

#: Call signatures whose return value is digest-invisible, as
#: ``(receiver_attribute, method)`` pairs; a ``None`` receiver matches
#: any receiver.  ``obs.causality.summary()`` matches
#: ``("causality", "summary")``; ``loop.stats_dict()`` matches
#: ``(None, "stats_dict")``.  Note ``("faults", "summary")`` is *not*
#: here: the resilience summary is digest-checked by design.
INVISIBLE_PRODUCERS: Tuple[Tuple[object, str], ...] = (
    (None, "stats_dict"),          # EventLoop.stats_dict -> loop_stats
    ("latency", "to_dict"),        # FlowLatencyTracker.to_dict -> flow_latency
    ("causality", "summary"),      # CausalityTracer.summary -> causality
    ("slo_governor", "summary"),   # SLOGovernor.summary -> slo
)

#: Modules that must declare a module-level ``__digest_safety__`` string
#: containing the given kind (SIM603): producers of digest-relevant
#: payloads carry their contract at the definition site.
MARKED_MODULES: Dict[str, str] = {
    "repro/runner/digest.py": "digest-checked",
    "repro/analysis/export.py": "digest-checked",
    "repro/core/nf.py": "digest-checked",
    "repro/sim/engine.py": "digest-invisible",
    "repro/obs/latency.py": "digest-invisible",
    "repro/obs/causality.py": "digest-invisible",
    "repro/core/monitor.py": "digest-invisible",
}

# ----------------------------------------------------------------------
# RNG construction surface (SIM612)
# ----------------------------------------------------------------------
#: Functions inside the SIM401-allowlisted ``repro/sim/rng.py`` that are
#: *sanctioned* to construct generators.  Any other function in that
#: file that constructs an RNG and is transitively callable from
#: simulation code is flagged.
RNG_SANCTIONED: FrozenSet[str] = frozenset({
    "repro.sim.rng.fallback_generator",
})

#: Prefixes covering whole sanctioned classes (the seeded factory).
RNG_SANCTIONED_PREFIXES: Tuple[str, ...] = (
    "repro.sim.rng.RngFactory.",
)

# ----------------------------------------------------------------------
# Process-pool safety (SIM701/SIM702)
# ----------------------------------------------------------------------
#: Module-level globals that are deliberately process-local mutable
#: state, with the reason they are safe under ``--workers`` fan-out.
#: Only the CLI parent sets them, before any campaign worker forks, and
#: tasks never write them, so every task in every long-lived worker sees
#: the same value and cross-worker invariance holds by construction.
PROCESS_LOCAL_STATE: Dict[str, str] = {
    "repro.experiments.common._ACTIVE_RUN": (
        "per-process RunContext (obs session, sanitizer, fault plan); "
        "entered and exited only by the CLI parent around a run, before "
        "pool workers fork, and never written by a task"),
}

#: Package-relative path prefixes of code that executes inside a
#: campaign worker (the runtime surface the pool-safety and lifted
#: rules take as reachability roots).
RUNTIME_PREFIXES: Tuple[str, ...] = (
    "repro/sim/", "repro/sched/", "repro/platform/", "repro/core/",
    "repro/nfs/", "repro/traffic/", "repro/experiments/",
    "repro/cluster/", "repro/faults/", "repro/obs/", "repro/runner/",
)


def validate_fields(field_names: Iterable[str]) -> List[str]:
    """Check a ``ScenarioResult`` field list against the registry.

    Returns a list of human-readable problems (empty when the field set
    and the registry partition agree exactly).
    """
    problems: List[str] = []
    fields = set(field_names)
    overlap = DIGEST_CHECKED_FIELDS & DIGEST_INVISIBLE_FIELDS
    for name in sorted(overlap):
        problems.append(
            f"field {name!r} declared both digest-checked and "
            f"digest-invisible")
    declared = DIGEST_CHECKED_FIELDS | DIGEST_INVISIBLE_FIELDS
    for name in sorted(fields - declared):
        problems.append(
            f"field {name!r} not declared in the digest-safety registry "
            f"(add it to DIGEST_CHECKED_FIELDS or "
            f"DIGEST_INVISIBLE_FIELDS)")
    for name in sorted(declared - fields):
        problems.append(
            f"registry declares {name!r} but ScenarioResult has no such "
            f"field (stale entry)")
    if not TELEMETRY_EXPORT_FIELDS <= DIGEST_INVISIBLE_FIELDS:
        problems.append(
            "TELEMETRY_EXPORT_FIELDS must be a subset of "
            "DIGEST_INVISIBLE_FIELDS")
    return problems
