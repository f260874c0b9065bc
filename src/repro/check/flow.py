"""Cross-module flow passes for ``repro check --deep``.

Three whole-program analyses over the :class:`repro.check.graph.ProjectGraph`,
each enforcing an invariant the runtime can only check after the fact:

* **SIM6xx — digest taint.**  The campaign digest must be a function of
  the digest-checked ``ScenarioResult`` fields only.  SIM601 flags a
  digest-invisible value (a read of ``loop_stats``/``flow_latency``/
  ``causality``/``slo``, or a call to a registered invisible producer)
  reaching the digest region — the forward call closure of the payload
  builders declared in :mod:`repro.check.registry` plus every function
  that calls ``repro.runner.digest.digest_of``/``canonical_json`` — or
  flowing into a digest-checked constructor field.  SIM602 flags a
  ``ScenarioResult`` field not declared in the registry partition.
  SIM603 flags a registered digest-relevant module missing its
  ``__digest_safety__`` marker.

* **SIM61x — interprocedural rule lifting.**  SIM101 and SIM401 are
  file-local and deliberately allowlist harness layers; SIM611/SIM612
  close the transitive gap: a wall-clock read (SIM611) or RNG
  construction (SIM612) sitting in an allowlisted file is flagged when
  the function holding it is transitively callable from ``sim/``/
  ``sched/``/``platform/`` code, with the call chain rendered as a
  witness.

* **SIM7xx — process-pool safety.**  Campaign ``--workers`` invariance
  assumes runtime code keeps no cross-run module state.  SIM701 flags a
  module-level mutable global mutated from a runtime code path, SIM702 a
  ``global``-statement rebind from runtime code (unless registered as
  deliberate process-local state), SIM703 a class-level mutable default
  in a runtime module.

Every exemption is declared in :mod:`repro.check.registry`; the passes
themselves carry no inline allowlists.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.check import registry
from repro.check.graph import MODULE_BODY, ProjectGraph
from repro.check.simcheck import (
    _RNG_CONSTRUCTORS,
    _WALL_CLOCK,
    _WALL_CLOCK_ALLOWED_PREFIXES,
    Finding,
)

__all__ = ["run_flow_passes", "EXPLAIN", "DEEP_RULES"]

#: Dotted names whose *callers* are structurally part of the digest
#: region even when not listed as payload builders.
_DIGEST_SINK_FUNCS = frozenset({
    "repro.runner.digest.digest_of",
    "repro.runner.digest.canonical_json",
    "repro.runner.digest.combine_digests",
})

#: Reachability roots for the lifted rules: code the simulation itself
#: executes (the file-local allowlists of SIM101/SIM401 were designed
#: around these layers never calling back into the harness).
_LIFT_ROOT_PREFIXES = ("repro/sim/", "repro/sched/", "repro/platform/")

#: Summaries of the deep rules, mirroring ``Rule.summary`` for SIM1xx-5xx.
DEEP_RULES: Dict[str, str] = {
    "SIM601": ("digest-invisible value reaches the digest-checked "
               "payload (cross-module taint)"),
    "SIM602": ("ScenarioResult field not declared in the digest-safety "
               "registry"),
    "SIM603": ("digest-relevant module missing its __digest_safety__ "
               "marker"),
    "SIM611": ("wall-clock/entropy read transitively reachable from "
               "simulation code (lifted SIM101)"),
    "SIM612": ("unsanctioned RNG construction transitively reachable "
               "from simulation code (lifted SIM401)"),
    "SIM701": ("module-level mutable global mutated from runtime code "
               "(breaks --workers invariance)"),
    "SIM702": ("global-statement rebind from runtime code outside the "
               "registered process-local singletons"),
    "SIM703": "class-level mutable default in a runtime module",
}

EXPLAIN: Dict[str, str] = {
    "SIM101": (
        "Wall-clock / entropy read in simulation code.  time.time(), "
        "datetime.now(), os.urandom(), uuid1/4() and friends return "
        "host-dependent values, so any influence on simulation state "
        "breaks bit-identical digests.  Simulation code takes time from "
        "the EventLoop and randomness from repro.sim.rng.  The "
        "repro/runner/ harness layer is allowlisted because there the "
        "wall clock is the measured quantity (see SIM611 for the "
        "transitive closure of that allowlist)."),
    "SIM102": (
        "Module-level random.*/numpy.random.* call.  The global RNGs "
        "are process-wide mutable state seeded outside the scenario; "
        "results stop being a function of the scenario seed.  Draw "
        "from a repro.sim.rng.RngFactory stream instead."),
    "SIM103": (
        "id() inside a sort/min/max key.  CPython id() is a memory "
        "address, so the order varies run to run.  Key on a stable "
        "field (name, index) instead."),
    "SIM201": (
        "Iteration over an unordered set expression.  Set order depends "
        "on hash seeding and insertion history, and in an event-driven "
        "simulator any such order leaks into event order.  Wrap the "
        "expression in sorted(...)."),
    "SIM301": (
        "Implicit float contamination of a *_ns quantity in "
        "sim/sched/platform.  Nanosecond state is integer; a float "
        "caps precision at 2^53 ns (~104 days) and rounds event times. "
        "Use int literals, or an explicit ': float' annotation where a "
        "quantity is genuinely fractional.  True division is exempt."),
    "SIM401": (
        "RNG constructed outside repro/sim/rng.py.  Every stream must "
        "come from the seeded RngFactory so seeding stays centralised "
        "and per-scenario.  (SIM612 checks the inside of rng.py "
        "itself.)"),
    "SIM501": (
        "Direct heapq use outside repro/sim/engine.py.  The engine owns "
        "every hot-path priority queue; ad-hoc heaps re-introduce "
        "per-event O(log n) cost and tie-ordering hazards.  Schedule "
        "through the EventLoop (call_at/call_after/call_every)."),
    "SIM502": (
        "Hot-path enum member loaded inside a function body in the "
        "simulation layers (sim, sched, platform, core, nfs, cluster, "
        "traffic, faults).  On CPython 3.11 TaskState.BLOCKED inside a "
        "function goes through the Enum metaclass's Python-level "
        "attribute lookup on every execution (~150 ns, against ~20 ns "
        "for a global), and the event path makes several such loads per "
        "event.  Bind the member once at module level (repro.sched.base "
        "exports BLOCKED, READY, RUNNING and the ExecOutcome members) "
        "and load that name; identity, .value and pickling are "
        "unchanged."),
    "SIM601": (
        "Digest taint: a digest-invisible value reaches the digest "
        "payload.  The campaign digest hashes only the digest-checked "
        "ScenarioResult fields (registry.DIGEST_CHECKED_FIELDS); "
        "telemetry (loop_stats, flow_latency, causality, slo) must "
        "never perturb it, or digests stop being comparable across "
        "telemetry settings.  The pass computes the digest region - "
        "the forward call closure of the registered payload builders "
        "plus every caller of repro.runner.digest functions - and flags "
        "any invisible-field read or invisible-producer call inside it "
        "that is not stored under an invisible/sibling key or guarded "
        "by a registered telemetry gate, plus any ScenarioResult "
        "construction passing an invisible payload to a digest-checked "
        "field.  The finding carries the call-chain witness from the "
        "digest root.  Fix by moving the value to a digest-invisible "
        "field or the sibling telemetry payload; never suppress."),
    "SIM602": (
        "ScenarioResult field not declared in the digest-safety "
        "registry.  Every field must be listed in exactly one of "
        "registry.DIGEST_CHECKED_FIELDS or DIGEST_INVISIBLE_FIELDS so "
        "the digest contract is explicit; an undeclared field would "
        "silently fall outside both the taint pass and the export "
        "canonicalisation.  Declare the field in "
        "src/repro/check/registry.py (and in result_to_dict if "
        "checked)."),
    "SIM603": (
        "Digest-relevant module missing its __digest_safety__ marker. "
        "Modules registered in registry.MARKED_MODULES must declare a "
        "module-level __digest_safety__ string containing their kind "
        "('digest-checked' or 'digest-invisible') so the contract is "
        "visible at the definition site and the analyzer can verify "
        "the registry and the code agree."),
    "SIM611": (
        "Lifted SIM101: wall-clock/entropy read transitively reachable "
        "from simulation code.  SIM101 allowlists repro/runner/ because "
        "the harness legitimately times worker processes - but a "
        "sim/sched/platform function calling into such a helper imports "
        "host time into the simulation.  The finding's witness line "
        "renders the call chain from the simulation root to the "
        "offending call.  Fix by passing simulated time in, or moving "
        "the helper out of the reachable set."),
    "SIM612": (
        "Lifted SIM401: unsanctioned RNG construction transitively "
        "reachable from simulation code.  repro/sim/rng.py is exempt "
        "from SIM401 wholesale, so a rogue constructor added there "
        "would go unflagged; this pass checks that any construction "
        "inside the allowlisted file reachable from simulation code "
        "belongs to the sanctioned factory surface "
        "(registry.RNG_SANCTIONED / RNG_SANCTIONED_PREFIXES)."),
    "SIM701": (
        "Module-level mutable global mutated from runtime code.  The "
        "campaign pool requires digests invariant to --workers; a "
        "dict/list/set global mutated on a runtime path accumulates "
        "cross-run state inside a worker process, so results depend on "
        "which tasks shared a worker.  Pass state explicitly, or - for "
        "a deliberate per-process singleton - register it with a "
        "justification in registry.PROCESS_LOCAL_STATE."),
    "SIM702": (
        "global-statement rebind from runtime code.  Rebinding a "
        "module global from a runtime path is the same cross-run "
        "state hazard as SIM701 in assignment form.  The one "
        "deliberate singleton, the CLI's run context, is registered in "
        "registry.PROCESS_LOCAL_STATE; anything else is a finding."),
    "SIM703": (
        "Class-level mutable default in a runtime module.  A mutable "
        "class attribute (dict/list/set) is shared by every instance "
        "in the process, so two scenario runs in one worker can "
        "observe each other's state.  Initialise per-instance state "
        "in __init__ (the pass exempts class attributes every "
        "instance rebinds)."),
}


def _finding(graph: ProjectGraph, rel_to_path: Dict[str, str], rel: str,
             line: int, col: int, code: str, message: str,
             chain: Tuple[str, ...] = ()) -> Finding:
    return Finding(rel_to_path.get(rel, rel), line, col, code, message,
                   chain=chain)


def _witness(graph: ProjectGraph,
             parents: Dict[str, Optional[str]],
             qual: str) -> Tuple[str, ...]:
    return tuple(graph.chain_to(parents, qual))


def _digest_roots(graph: ProjectGraph) -> List[str]:
    roots: Set[str] = set()
    for builder in registry.DIGEST_PAYLOAD_BUILDERS:
        if builder in graph.functions:
            roots.add(builder)
    for qual in graph.functions:
        rec = graph.func_summary(qual)
        for call in rec["calls"]:
            resolved = call["resolved"]
            raw = call["raw"]
            if resolved in _DIGEST_SINK_FUNCS:
                roots.add(qual)
            elif raw is not None and resolved is None:
                # Bare/attribute call named like a digest function whose
                # import we could not resolve - be conservative only for
                # exact tail matches of the known sink names.
                tail = raw.split(".")[-1]
                if any(s.endswith("." + tail) for s in _DIGEST_SINK_FUNCS):
                    roots.add(qual)
    return sorted(roots)


def _exempt_invisible_use(entry: Dict[str, Any]) -> bool:
    """Is this invisible read / producer call an explicit non-digest use?"""
    if entry.get("in_test"):
        return True
    key = entry.get("key")
    if key is not None and (key in registry.DIGEST_INVISIBLE_FIELDS
                            or key in registry.SIBLING_KEYS):
        return True
    guards = set(entry.get("guards") or ())
    if guards & registry.TELEMETRY_GATES:
        return True
    return False


def _pass_digest_taint(graph: ProjectGraph,
                       rel_to_path: Dict[str, str]) -> List[Finding]:
    findings: List[Finding] = []
    roots = _digest_roots(graph)
    parents = graph.reachable_from(roots)
    for qual in sorted(parents):
        rec = graph.func_summary(qual)
        rel = graph.func_rel(qual)
        chain = _witness(graph, parents, qual)
        for read in rec["invisible_reads"]:
            if _exempt_invisible_use(read):
                continue
            findings.append(_finding(
                graph, rel_to_path, rel, read["lineno"], read["col"],
                "SIM601",
                f"digest-invisible field {read['attr']!r} read inside "
                f"the digest region ({qual}); route it through a "
                f"digest-invisible field or the sibling telemetry "
                f"payload", chain))
        for call in rec["producer_calls"]:
            if _exempt_invisible_use(call):
                continue
            recv = call["recv"]
            desc = f"{recv}.{call['method']}" if recv else call["method"]
            findings.append(_finding(
                graph, rel_to_path, rel, call["lineno"], call["col"],
                "SIM601",
                f"digest-invisible producer {desc}() called inside the "
                f"digest region ({qual}); its payload must not enter "
                f"the digest", chain))
    # ScenarioResult construction sites: invisible payload into a
    # digest-checked constructor field (anywhere, not just the region).
    for qual in sorted(graph.functions):
        rec = graph.func_summary(qual)
        rel = graph.func_rel(qual)
        for sr in rec["sr_calls"]:
            for kw in sr["kwargs"]:
                if kw["name"] not in registry.DIGEST_CHECKED_FIELDS:
                    continue
                for recv, method in kw["producers"]:
                    desc = f"{recv}.{method}" if recv else method
                    findings.append(_finding(
                        graph, rel_to_path, rel, kw["lineno"], kw["col"],
                        "SIM601",
                        f"digest-invisible producer {desc}() assigned to "
                        f"digest-checked ScenarioResult field "
                        f"{kw['name']!r}"))
                for attr in kw["reads"]:
                    findings.append(_finding(
                        graph, rel_to_path, rel, kw["lineno"], kw["col"],
                        "SIM601",
                        f"digest-invisible field {attr!r} flows into "
                        f"digest-checked ScenarioResult field "
                        f"{kw['name']!r}"))
    return findings


def _pass_field_registry(graph: ProjectGraph,
                         rel_to_path: Dict[str, str]) -> List[Finding]:
    findings: List[Finding] = []
    declared = (registry.DIGEST_CHECKED_FIELDS
                | registry.DIGEST_INVISIBLE_FIELDS)
    for path in sorted(graph.summaries):
        s = graph.summaries[path]
        fields = s.get("scenario_fields")
        if not fields:
            continue
        for field in fields:
            if field["name"] in declared:
                continue
            findings.append(_finding(
                graph, rel_to_path, s["rel"], field["lineno"],
                field["col"], "SIM602",
                f"ScenarioResult field {field['name']!r} is not declared "
                f"in the digest-safety registry; add it to "
                f"DIGEST_CHECKED_FIELDS or DIGEST_INVISIBLE_FIELDS in "
                f"repro/check/registry.py"))
    return findings


def _pass_markers(graph: ProjectGraph,
                  rel_to_path: Dict[str, str]) -> List[Finding]:
    findings: List[Finding] = []
    by_rel = {s["rel"]: s for s in graph.summaries.values()}
    for rel, kind in sorted(registry.MARKED_MODULES.items()):
        s = by_rel.get(rel)
        if s is None:
            continue
        marker = s.get("marker")
        if marker is None:
            findings.append(_finding(
                graph, rel_to_path, rel, 1, 0, "SIM603",
                f"module is registered as {kind!r} but declares no "
                f"__digest_safety__ marker"))
        elif kind not in marker:
            findings.append(_finding(
                graph, rel_to_path, rel, 1, 0, "SIM603",
                f"__digest_safety__ marker {marker!r} does not match the "
                f"registered kind {kind!r}"))
    return findings


def _lift_roots(graph: ProjectGraph) -> List[str]:
    return [qual for qual, (_p, rel, _s) in graph.functions.items()
            if rel.startswith(_LIFT_ROOT_PREFIXES)]


def _pass_lifted_wall_clock(graph: ProjectGraph,
                            rel_to_path: Dict[str, str],
                            parents: Dict[str, Optional[str]]) \
        -> List[Finding]:
    findings: List[Finding] = []
    for qual in sorted(parents):
        rel = graph.func_rel(qual)
        # File-local SIM101 already covers non-allowlisted files; the
        # lifted rule closes exactly the allowlist gap.
        if not rel.startswith(_WALL_CLOCK_ALLOWED_PREFIXES):
            continue
        rec = graph.func_summary(qual)
        for call in rec["calls"]:
            if call["resolved"] in _WALL_CLOCK:
                chain = _witness(graph, parents, qual)
                findings.append(_finding(
                    graph, rel_to_path, rel, call["lineno"], call["col"],
                    "SIM611",
                    f"{call['resolved']}() is host-dependent and "
                    f"transitively reachable from simulation code via "
                    f"{chain[0]}; pass simulated time in instead",
                    chain))
    return findings


def _rng_sanctioned(qual: str) -> bool:
    if qual in registry.RNG_SANCTIONED:
        return True
    return any(qual.startswith(p) for p in registry.RNG_SANCTIONED_PREFIXES)


def _pass_lifted_rng(graph: ProjectGraph,
                     rel_to_path: Dict[str, str],
                     parents: Dict[str, Optional[str]]) -> List[Finding]:
    from repro.check.simcheck import _RNG_ALLOWED
    findings: List[Finding] = []
    for qual in sorted(parents):
        rel = graph.func_rel(qual)
        if rel not in _RNG_ALLOWED:
            continue  # file-local SIM401 already covers everything else
        if _rng_sanctioned(qual):
            continue
        rec = graph.func_summary(qual)
        for call in rec["calls"]:
            if call["resolved"] in _RNG_CONSTRUCTORS:
                chain = _witness(graph, parents, qual)
                findings.append(_finding(
                    graph, rel_to_path, rel, call["lineno"], call["col"],
                    "SIM612",
                    f"{call['resolved']}() constructed in {qual}, which "
                    f"is outside the sanctioned RngFactory surface but "
                    f"reachable from simulation code", chain))
    return findings


def _runtime_functions(graph: ProjectGraph) -> Dict[str, Optional[str]]:
    roots = [qual for qual, (_p, rel, _s) in graph.functions.items()
             if rel.startswith(registry.RUNTIME_PREFIXES)]
    return graph.reachable_from(roots)


def _pass_pool_safety(graph: ProjectGraph,
                      rel_to_path: Dict[str, str],
                      runtime: Dict[str, Optional[str]]) -> List[Finding]:
    findings: List[Finding] = []
    for qual in sorted(runtime):
        path, rel, suffix = graph.functions[qual]
        if suffix == MODULE_BODY:
            continue  # import-time initialisation is once-per-process
        s = graph.summaries[path]
        module = s["module"]
        rec = graph.func_summary(qual)
        local_names = set(rec["locals"])
        for mut in rec["mutations"]:
            name = mut["name"]
            target_module: Optional[str] = None
            target_name: Optional[str] = None
            if name not in local_names and name in s["mutable_globals"]:
                target_module, target_name = module, name
            else:
                resolved = mut["resolved"]
                if resolved is not None:
                    mod, _sep, gname = resolved.rpartition(".")
                    other = graph.by_module.get(mod)
                    if other is not None \
                            and gname in other["mutable_globals"]:
                        target_module, target_name = mod, gname
            if target_module is None or target_name is None:
                continue
            full = f"{target_module}.{target_name}"
            if full in registry.PROCESS_LOCAL_STATE:
                continue
            findings.append(_finding(
                graph, rel_to_path, rel, mut["lineno"], mut["col"],
                "SIM701",
                f"module-level mutable global {full} mutated "
                f"({mut['op']}) from runtime code path {qual}; "
                f"cross-run state breaks --workers invariance"))
        for rebind in rec["rebinds"]:
            full = f"{module}.{rebind['name']}"
            if full in registry.PROCESS_LOCAL_STATE:
                continue
            findings.append(_finding(
                graph, rel_to_path, rel, rebind["lineno"], rebind["col"],
                "SIM702",
                f"global {full} rebound from runtime code path {qual}; "
                f"register deliberate process-local singletons in "
                f"registry.PROCESS_LOCAL_STATE"))
    # Class-level mutables: declaration-site check per runtime module.
    for path in sorted(graph.summaries):
        s = graph.summaries[path]
        if not s["rel"].startswith(registry.RUNTIME_PREFIXES):
            continue
        for cm in s["class_mutables"]:
            if cm["rebound"]:
                continue  # every instance replaces it in a method
            full = f"{s['module']}.{cm['cls']}.{cm['attr']}"
            if f"{s['module']}.{cm['attr']}" in registry.PROCESS_LOCAL_STATE \
                    or full in registry.PROCESS_LOCAL_STATE:
                continue
            findings.append(_finding(
                graph, rel_to_path, s["rel"], cm["lineno"], cm["col"],
                "SIM703",
                f"class-level mutable {cm['cls']}.{cm['attr']} is shared "
                f"by every instance in the process; initialise it in "
                f"__init__"))
    return findings


def run_flow_passes(graph: ProjectGraph,
                    rel_to_path: Optional[Dict[str, str]] = None) \
        -> List[Finding]:
    """Run all deep passes; returns findings sorted by location."""
    r2p = rel_to_path if rel_to_path is not None else {
        s["rel"]: p for p, s in graph.summaries.items()}
    findings: List[Finding] = []
    findings += _pass_digest_taint(graph, r2p)
    findings += _pass_field_registry(graph, r2p)
    findings += _pass_markers(graph, r2p)
    lift_parents = graph.reachable_from(_lift_roots(graph))
    findings += _pass_lifted_wall_clock(graph, r2p, lift_parents)
    findings += _pass_lifted_rng(graph, r2p, lift_parents)
    findings += _pass_pool_safety(graph, r2p, _runtime_functions(graph))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code, f.message))
    return findings
