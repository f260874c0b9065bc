"""Figure 11: every ordering of a heterogeneous 3-NF chain (§4.3.2).

The Low (120), Medium (270), High (550) NFs share one core and the chain
order is permuted through all six arrangements, moving the bottleneck's
position.  The vanilla schedulers vary wildly with bottleneck position —
RR(1 ms) likes the bottleneck upstream, RR(100 ms) collapses below
40 Kpps when a heavy NF sits upstream of a light one (the fast-producer /
slow-consumer CPU hog) — while NFVnice is consistently near the feasible
rate for every permutation and scheduler.
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, List, Tuple

from repro.experiments.common import CaseSpec, Scenario, ScenarioResult, \
    build_linear_chain, run_cases
from repro.metrics.report import render_table

COSTS = {"Low": 120.0, "Med": 270.0, "High": 550.0}
ORDERS: Tuple[Tuple[str, str, str], ...] = tuple(permutations(COSTS))
SCHEDULERS = ("NORMAL", "BATCH", "RR_1MS", "RR_100MS")
SYSTEMS = ("Default", "NFVnice")


def order_label(order: Tuple[str, str, str]) -> str:
    return "-".join(order)


def run_case(order: Tuple[str, str, str], scheduler: str, features: str,
             duration_s: float = 1.0, seed: int = 0) -> ScenarioResult:
    scenario = Scenario(scheduler=scheduler, features=features, seed=seed)
    build_linear_chain(scenario, [COSTS[label] for label in order], core=0)
    scenario.add_flow("flow", "chain", line_rate_fraction=1.0)
    return scenario.run(duration_s)


def campaign_cases(duration_s: float = 1.0) -> List[CaseSpec]:
    """One case per (ordering, scheduler, system) cell of the figure."""
    return [
        CaseSpec(key=(order_label(order), sched, system),
                 kwargs={"order": order, "scheduler": sched,
                         "features": system, "duration_s": duration_s,
                         "seed": 0})
        for order in ORDERS
        for sched in SCHEDULERS
        for system in SYSTEMS
    ]


def render_cases(results: Dict[Tuple[str, str, str], ScenarioResult]) -> str:
    return format_figure11(results)


def format_figure11(results: Dict[Tuple[str, str, str], ScenarioResult]) -> str:
    orders = sorted({k[0] for k in results})
    schedulers = sorted({k[1] for k in results}, key=SCHEDULERS.index)
    rows: List[list] = []
    for order in orders:
        for system in SYSTEMS:
            row: List[object] = [order, system]
            for sched in schedulers:
                res = results[(order, sched, system)]
                row.append(round(res.total_throughput_pps / 1e6, 3))
            rows.append(row)
    return render_table(
        ["chain order", "system"] + [f"{s} Mpps" for s in schedulers],
        rows, title="Figure 11: heterogeneous chain orderings",
    )


def main(duration_s: float = 1.0) -> str:
    return render_cases(run_cases(run_case, campaign_cases(duration_s)))


if __name__ == "__main__":  # pragma: no cover - manual runs
    print(main())
