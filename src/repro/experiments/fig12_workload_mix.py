"""Figure 12: workload heterogeneity — random NF order per flow (§4.3.3).

Three NFs with the *same* compute cost share a core.  Workload Type k
(k = 1..6) offers k equal-rate flows, each traversing all three NFs in a
random order, so every flow has a different bottleneck structure.  The
native schedulers degrade as soon as two or more differently-ordered
flows contend; NFVnice holds a nearly type-independent throughput because
per-chain backpressure sheds each flow at its own entry point.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.experiments.common import CaseSpec, Scenario, ScenarioResult, \
    run_cases
from repro.metrics.report import render_table
from repro.platform.nic import line_rate_pps

NF_COST = 270.0
SCHEDULERS = ("NORMAL", "BATCH", "RR_1MS", "RR_100MS")
SYSTEMS = ("Default", "NFVnice")
TYPES = (1, 2, 3, 4, 5, 6)


def run_case(n_flows: int, scheduler: str, features: str,
             duration_s: float = 1.0, seed: int = 0) -> ScenarioResult:
    scenario = Scenario(scheduler=scheduler, features=features, seed=seed)
    names = [f"nf{i}" for i in (1, 2, 3)]
    for name in names:
        scenario.add_nf(name, NF_COST, core=0)
    rng = scenario.rng_factory.stream("flow-order")
    per_flow = line_rate_pps(64) / n_flows
    for f in range(n_flows):
        order = list(names)
        rng.shuffle(order)
        chain = scenario.add_chain(f"chain{f}", order)
        scenario.add_flow(f"flow{f}", chain.name, rate_pps=per_flow)
    return scenario.run(duration_s)


def campaign_cases(duration_s: float = 1.0) -> List[CaseSpec]:
    """One case per (workload type, scheduler, system).  Type ``t`` runs
    with ``seed=t``, so each type draws its own random NF orders."""
    return [
        CaseSpec(key=(t, sched, system),
                 kwargs={"n_flows": t, "scheduler": sched,
                         "features": system, "duration_s": duration_s,
                         "seed": t})
        for t in TYPES
        for sched in SCHEDULERS
        for system in SYSTEMS
    ]


def render_cases(results: Dict[Tuple[int, str, str], ScenarioResult]) -> str:
    return format_figure12(results)


def format_figure12(results: Dict[Tuple[int, str, str], ScenarioResult]) -> str:
    types = sorted({k[0] for k in results})
    schedulers = sorted({k[1] for k in results}, key=SCHEDULERS.index)
    rows: List[list] = []
    for t in types:
        for system in SYSTEMS:
            row: List[object] = [f"Type {t}", system]
            for sched in schedulers:
                res = results[(t, sched, system)]
                row.append(round(res.total_throughput_pps / 1e6, 3))
            rows.append(row)
    return render_table(
        ["workload", "system"] + [f"{s} Mpps" for s in schedulers],
        rows, title="Figure 12: flows with random NF orders",
    )


def main(duration_s: float = 1.0) -> str:
    return render_cases(run_cases(run_case, campaign_cases(duration_s)))


if __name__ == "__main__":  # pragma: no cover - manual runs
    print(main())
