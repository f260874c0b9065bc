"""Campaign orchestration: many experiments, one worker pool.

A campaign enumerates every selected experiment into tasks (per-sweep-cell
where the module supports it, whole-``main`` otherwise), fans the *global*
task list across the pool — so a wide sweep like fig11's 48 cells keeps
all workers busy even while a single-task experiment runs — and then
aggregates per experiment in enumeration order:

* case experiments get their artifact re-rendered from the collected
  ``{key: ScenarioResult}`` grid, exactly as their serial ``main`` would;
* the per-experiment digest chains the per-task result digests in task
  order, so it is bit-identical for any worker count.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.runner.digest import (
    combine_digests,
    digest_of,
    ensure_digest_safe,
)
from repro.runner.pool import TaskOutcome, run_tasks
from repro.runner.tasks import TaskSpec, enumerate_tasks


@dataclass
class ExperimentReport:
    """Aggregated outcome of one experiment inside a campaign."""

    id: str
    status: str                       # "ok" | "failed"
    digest: Optional[str]             # None when any task failed
    artifact: Optional[str]           # rendered table(s), when status ok
    tasks: List[TaskOutcome] = field(default_factory=list)
    task_wall_s: float = 0.0          # sum of in-worker execution times
    sim_seconds: Optional[float] = None
    #: Merged flow-latency telemetry across the experiment's cases
    #: (``{"flow_latency": raw mergeable dict}``); folded in task
    #: enumeration order, so — like the digest — it is bit-identical for
    #: any worker count.  Empty when no case carried telemetry.
    telemetry: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def sim_time_throughput(self) -> Optional[float]:
        """Simulated seconds computed per wall second of worker time."""
        if self.sim_seconds is None or self.task_wall_s <= 0:
            return None
        return self.sim_seconds / self.task_wall_s

    @property
    def failures(self) -> List[str]:
        return [
            f"{o.spec.task_id}: {o.status} after {o.attempts} attempt(s)"
            + (f" — {o.error.strip().splitlines()[-1]}" if o.error else "")
            for o in self.tasks if not o.ok
        ]


@dataclass
class CampaignResult:
    experiments: Dict[str, ExperimentReport]
    workers: int
    duration_s: Optional[float]
    seed: int
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return all(report.ok for report in self.experiments.values())


def experiment_registry() -> Dict[str, str]:
    """experiment id -> module path (the CLI's experiment index)."""
    from repro.cli import EXPERIMENTS

    return {name: module for name, (module, _desc) in EXPERIMENTS.items()}


def run_campaign(
    ids: Sequence[str],
    workers: int = 1,
    duration_s: Optional[float] = None,
    seed: int = 0,
    task_timeout_s: float = 600.0,
    start_method: Optional[str] = None,
    on_task_done: Optional[Callable[[TaskOutcome], None]] = None,
) -> CampaignResult:
    """Run ``ids`` (campaign order preserved) over ``workers`` processes."""
    registry = experiment_registry()
    unknown = [i for i in ids if i not in registry]
    if unknown:
        raise ValueError(f"unknown experiment id(s): {', '.join(unknown)}")
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate experiment ids in campaign")

    t0 = time.perf_counter()
    specs: List[TaskSpec] = []
    per_experiment: Dict[str, List[int]] = {}
    for exp_id in ids:
        tasks = enumerate_tasks(exp_id, registry[exp_id],
                                duration_s=duration_s, campaign_seed=seed)
        per_experiment[exp_id] = list(
            range(len(specs), len(specs) + len(tasks)))
        specs.extend(tasks)

    outcomes = run_tasks(specs, workers=workers, timeout_s=task_timeout_s,
                         start_method=start_method, on_done=on_task_done)

    reports: Dict[str, ExperimentReport] = {}
    for exp_id in ids:
        exp_outcomes = [outcomes[i] for i in per_experiment[exp_id]]
        reports[exp_id] = _aggregate(exp_id, registry[exp_id], exp_outcomes)
    return CampaignResult(
        experiments=reports,
        workers=workers,
        duration_s=duration_s,
        seed=seed,
        elapsed_s=time.perf_counter() - t0,
    )


def outcome_result(outcome: TaskOutcome) -> Any:
    """A case task's ScenarioResult with the digest-invisible telemetry
    riding next to ``"value"`` reattached, as a serial run has it."""
    from repro.analysis.export import result_from_dict

    result = result_from_dict(outcome.payload["value"])
    extra = outcome.payload.get("telemetry")
    if extra:
        result.flow_latency = extra.get("flow_latency", {})
        result.causality = extra.get("causality", {})
        result.slo = extra.get("slo", {})
    return result


def _aggregate(exp_id: str, module_path: str,
               outcomes: List[TaskOutcome]) -> ExperimentReport:
    task_wall_s = sum(o.wall_s for o in outcomes)
    sims = [o.spec.sim_seconds for o in outcomes]
    sim_seconds = (sum(s for s in sims if s is not None)
                   if any(s is not None for s in sims) else None)
    if not all(o.ok for o in outcomes):
        return ExperimentReport(
            id=exp_id, status="failed", digest=None, artifact=None,
            tasks=outcomes, task_wall_s=task_wall_s, sim_seconds=sim_seconds,
        )

    digest = combine_digests(
        f"{o.spec.label}:{digest_of(ensure_digest_safe(o.payload['value']))}"
        for o in outcomes
    )
    if len(outcomes) == 1 and outcomes[0].spec.fn == "main":
        artifact = outcomes[0].payload["value"]
    else:
        artifact = importlib.import_module(module_path).render_cases(
            {o.spec.key: outcome_result(o) for o in outcomes})
    telemetry: Dict[str, object] = {}
    latency_dicts = [
        (o.payload.get("telemetry") or {}).get("flow_latency") or {}
        for o in outcomes
    ]
    if any(latency_dicts):
        from repro.obs.latency import merge_latency_dicts

        # Enumeration order: merging is a left fold, so the merged
        # histograms (float `total` included) are worker-count invariant.
        telemetry["flow_latency"] = merge_latency_dicts(latency_dicts)
    return ExperimentReport(
        id=exp_id, status="ok", digest=digest, artifact=artifact,
        tasks=outcomes, task_wall_s=task_wall_s, sim_seconds=sim_seconds,
        telemetry=telemetry,
    )
