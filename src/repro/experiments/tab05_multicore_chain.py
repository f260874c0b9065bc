"""Table 5: a 3-NF chain with each NF pinned to its own core (§4.2.2).

NF1 ~550, NF2 ~2200, NF3 ~4500 cycles; line-rate 64 B input.  With NFs on
dedicated cores the kernel scheduler is irrelevant — the table isolates
what backpressure alone buys: the Default system burns NF1's and NF2's
cores processing packets NF3 will discard, while NFVnice sheds the excess
at the chain entry and drops NF1/NF2 CPU utilisation to just what the
bottleneck (NF3) can consume, at identical aggregate throughput.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import CaseSpec, Scenario, ScenarioResult, \
    build_linear_chain, run_cases
from repro.metrics.report import render_table

CHAIN_COSTS = (550.0, 2200.0, 4500.0)


def run_case(features: str, duration_s: float = 2.0,
             seed: int = 0) -> ScenarioResult:
    scenario = Scenario(scheduler="NORMAL", features=features, seed=seed)
    build_linear_chain(scenario, CHAIN_COSTS, core=(0, 1, 2))
    scenario.add_flow("flow", "chain", line_rate_fraction=1.0)
    return scenario.run(duration_s)


def campaign_cases(duration_s: float = 2.0) -> List[CaseSpec]:
    return [
        CaseSpec(key=system,
                 kwargs={"features": system, "duration_s": duration_s,
                         "seed": 0})
        for system in ("Default", "NFVnice")
    ]


def render_cases(results: Dict[str, ScenarioResult]) -> str:
    return format_table5(results)


def format_table5(results: Dict[str, ScenarioResult]) -> str:
    rows: List[list] = []
    for i in (1, 2, 3):
        row: List[object] = [f"NF{i} (~{int(CHAIN_COSTS[i - 1])}cyc)"]
        for system in ("Default", "NFVnice"):
            res = results[system]
            nf = res.nf(f"nf{i}")
            row += [
                nf.processed_pps,
                nf.wasted_pps,
                f"{100 * res.core_utilization[nf.core_id]:.0f}%",
            ]
        rows.append(row)
    agg: List[object] = ["Aggregate"]
    for system in ("Default", "NFVnice"):
        res = results[system]
        total_util = sum(res.core_utilization.values())
        agg += [
            res.total_throughput_pps,
            res.total_wasted_pps,
            f"{100 * total_util:.0f}%",
        ]
    rows.append(agg)
    return render_table(
        ["NF",
         "Def svc pps", "Def drop pps", "Def CPU",
         "NFVn svc pps", "NFVn drop pps", "NFVn CPU"],
        rows,
        title="Table 5: 3-NF chain, one core per NF "
              "(drop pps = processed then dropped downstream)",
    )


def main(duration_s: float = 2.0) -> str:
    return render_cases(run_cases(run_case, campaign_cases(duration_s)))


if __name__ == "__main__":  # pragma: no cover - manual runs
    print(main())
