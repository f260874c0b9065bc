"""The benchmark's five pinned workloads.

Every in-process workload is a closed batch: one loop runs a fixed list
of ``run_case(**kwargs)`` calls back to back, serially, in this process.
The case lists are written out here rather than taken from an
experiment's ``campaign_cases()``, so a later edit to an experiment's grid
cannot silently change what the benchmark measures.  Each grid mirrors
today's experiment grid (same axes, same values); only the simulated
duration per case is shorter, so that one pass takes a few host seconds
and a run times every case several times.

``campaign_fanout`` is the one workload that goes through the campaign
runner: ``run_campaign`` over two forked workers.

A run's seed replaces the ``seed`` of every case (for the campaign: the
campaign seed, from which the runner derives each task's seed).
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Any, Callable, Dict, List, Tuple, Union

from repro.analysis.export import result_to_dict
from repro.runner.digest import digest_of


@dataclasses.dataclass(frozen=True)
class Workload:
    """One pinned grid: ``module.run_case(**case, seed=seed)`` per case."""

    name: str
    module: str
    cases: Tuple[Dict[str, Any], ...]

    def calls(self, seed: int) -> List[Tuple[str, Callable[..., Any],
                                             Dict[str, Any]]]:
        """``(label, run_case, kwargs)`` for every case, seed applied."""
        fn = importlib.import_module(self.module).run_case
        return [(case_label(case), fn, dict(case, seed=seed))
                for case in self.cases]


@dataclasses.dataclass(frozen=True)
class CampaignWorkload:
    """``run_campaign(ids, workers, duration_s, seed)`` as one unit."""

    name: str
    ids: Tuple[str, ...]
    workers: int
    duration_s: float


def case_label(case: Dict[str, Any]) -> str:
    """Stable label of a case: its kwargs, seed excluded, sorted by key."""
    return "|".join(f"{k}={case[k]}" for k in sorted(case) if k != "seed")


def result_digest(result: Any) -> str:
    """The campaign runner's digest of one ``ScenarioResult``."""
    return digest_of(result_to_dict(result))


# Scheduler dispatch, rings and NFProcess.execute at up to 10 NFs per
# core.  FixedCost is inlined in execute and telemetry is off, so the
# nfs and obs layers do no work: the control for cost-model and
# telemetry changes.
CHAIN_SWEEP = Workload(
    name="chain_sweep",
    module="repro.experiments.fig16_chain_length",
    cases=tuple(
        {"length": length, "placement": placement, "features": features,
         "duration_s": 0.05}
        for length in range(1, 11)
        for placement in ("SC", "MC")
        for features in ("Default", "NFVnice")
    ),
)

# The fig07/fig16 chain shape with per-packet ChoiceCost draws, so the
# nfs cost-model layer is the largest one.  With chain_sweep it
# separates the two paths of NFProcess.execute.
VARIABLE_COST = Workload(
    name="variable_cost",
    module="repro.experiments.fig10_variable_cost",
    cases=tuple(
        {"scheduler": scheduler, "features": features, "duration_s": 0.1}
        for scheduler in ("NORMAL", "BATCH", "RR_1MS", "RR_100MS")
        for features in ("Default", "CGroup", "OnlyBKPR", "NFVnice")
    ),
)

# The only workload running the EDF and DEADLINE policies, the obs
# latency/causality trackers, the SLO governor and heavy-tailed
# (Pareto/MMPP/flash-crowd) arrivals.
SLO_MIX = Workload(
    name="slo_mix",
    module="repro.experiments.slo_battery",
    cases=tuple(
        {"workload": workload, "scheduler": scheduler, "duration_s": 0.2}
        for workload in ("bursty", "flash", "mixed")
        for scheduler in ("NORMAL", "EDF", "DEADLINE")
    ),
)

# Many pending events spread over 2-8 hosts (the other workloads have a
# few dense ones), the cluster fabric and the autoscaler.  0.2 sim-s is
# the shortest run in which every auto cell scales out once.
CLUSTER_FLASH = Workload(
    name="cluster_flash",
    module="repro.experiments.cluster_scaling",
    cases=tuple(
        {"workload": workload, "hosts": hosts, "mode": mode,
         "duration_s": 0.2}
        for workload in ("flash", "mmpp")
        for hosts in (2, 4, 8)
        for mode in ("auto", "static")
    ),
)

# The only workload through repro.runner: 116 short tasks, so per-task
# fork, JSON payloads, digesting and render/merge dominate.  Two workers
# equals the core count of the machine the sizes were measured on.
CAMPAIGN_FANOUT = CampaignWorkload(
    name="campaign_fanout",
    ids=("fig07", "fig09", "fig11", "fig12", "tab05"),
    workers=2,
    duration_s=0.02,
)

WORKLOADS: Dict[str, Union[Workload, CampaignWorkload]] = {
    w.name: w for w in (CHAIN_SWEEP, VARIABLE_COST, SLO_MIX, CLUSTER_FLASH,
                        CAMPAIGN_FANOUT)
}
