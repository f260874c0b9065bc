"""Figure 10: variable per-packet processing cost (§4.3.1).

The same 3-NF single-core chain as Figure 7, but each NF's per-packet
cost is drawn per packet from {120, 270, 550} cycles — so a packet's total
chain cost is one of nine combinations.  The paper's finding: the CGroup
weight path suffers (variable costs make the service-time estimate, and
hence the weight assignment, inaccurate), while backpressure alone is
resilient and delivers the best and almost scheduler-independent
throughput; NFVnice inherits that benefit.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.experiments.common import CaseSpec, FEATURE_SETS, Scenario, \
    ScenarioResult, run_cases
from repro.metrics.report import render_table
from repro.nfs.cost_models import ChoiceCost

COST_VALUES = (120.0, 270.0, 550.0)
SCHEDULERS = ("NORMAL", "BATCH", "RR_1MS", "RR_100MS")
SYSTEMS = tuple(FEATURE_SETS)


def run_case(scheduler: str, features: str, duration_s: float = 2.0,
             seed: int = 0) -> ScenarioResult:
    scenario = Scenario(scheduler=scheduler, features=features, seed=seed)
    names = []
    for i in (1, 2, 3):
        rng = scenario.rng_factory.stream(f"cost-nf{i}")
        scenario.add_nf(f"nf{i}", ChoiceCost(COST_VALUES, rng=rng), core=0)
        names.append(f"nf{i}")
    scenario.add_chain("chain", names)
    scenario.add_flow("flow", "chain", line_rate_fraction=1.0)
    return scenario.run(duration_s)


def campaign_cases(duration_s: float = 2.0) -> List[CaseSpec]:
    return [
        CaseSpec(key=(sched, system),
                 kwargs={"scheduler": sched, "features": system,
                         "duration_s": duration_s, "seed": 0})
        for sched in SCHEDULERS
        for system in SYSTEMS
    ]


def render_cases(results: Dict[Tuple[str, str], ScenarioResult]) -> str:
    return format_figure10(results)


def format_figure10(results: Dict[Tuple[str, str], ScenarioResult]) -> str:
    schedulers = sorted({k[0] for k in results}, key=SCHEDULERS.index)
    systems = sorted({k[1] for k in results}, key=SYSTEMS.index)
    rows: List[list] = []
    for sched in schedulers:
        row: List[object] = [sched]
        for system in systems:
            res = results[(sched, system)]
            row.append(round(res.chain("chain").throughput_pps / 1e6, 3))
        rows.append(row)
    return render_table(
        ["sched"] + [f"{s} Mpps" for s in systems], rows,
        title="Figure 10: variable per-packet cost (120/270/550 mix)",
    )


def main(duration_s: float = 2.0) -> str:
    return render_cases(run_cases(run_case, campaign_cases(duration_s)))


if __name__ == "__main__":  # pragma: no cover - manual runs
    print(main())
