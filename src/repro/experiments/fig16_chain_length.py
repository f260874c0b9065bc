"""Figure 16: scaling the service-chain length from 1 to 10 NFs (§4.3.7).

Each added NF cycles through the Low/Medium/High costs of §4.2.  Two
placements: SC — every NF shares one core; MC — NFs placed round-robin
over three cores.  NFVnice's advantage grows with the number of NFs
multiplexed per core (more scheduling decisions to get right, more
upstream work to waste).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.experiments.common import CaseSpec, Scenario, ScenarioResult, \
    build_linear_chain, run_cases
from repro.metrics.report import render_table

BASE_COSTS = (120.0, 270.0, 550.0)
LENGTHS = tuple(range(1, 11))
MC_CORES = 3


def run_case(length: int, placement: str, features: str,
             duration_s: float = 1.0, seed: int = 0) -> ScenarioResult:
    if placement not in ("SC", "MC"):
        raise ValueError("placement must be 'SC' or 'MC'")
    scenario = Scenario(scheduler="NORMAL", features=features, seed=seed)
    costs = [BASE_COSTS[i % len(BASE_COSTS)] for i in range(length)]
    if placement == "SC":
        cores: List[int] = [0] * length
    else:
        cores = [i % MC_CORES for i in range(length)]
    build_linear_chain(scenario, costs, core=cores)
    scenario.add_flow("flow", "chain", line_rate_fraction=1.0)
    return scenario.run(duration_s)


def campaign_cases(duration_s: float = 1.0) -> List[CaseSpec]:
    return [
        CaseSpec(key=(length, placement, system),
                 kwargs={"length": length, "placement": placement,
                         "features": system, "duration_s": duration_s,
                         "seed": 0})
        for length in LENGTHS
        for placement in ("SC", "MC")
        for system in ("Default", "NFVnice")
    ]


def render_cases(results: Dict[Tuple[int, str, str], ScenarioResult]) -> str:
    return format_figure16(results)


def format_figure16(results: Dict[Tuple[int, str, str], ScenarioResult]) -> str:
    lengths = sorted({k[0] for k in results})
    rows: List[list] = []
    for length in lengths:
        row: List[object] = [length]
        for placement in ("SC", "MC"):
            for system in ("Default", "NFVnice"):
                res = results[(length, placement, system)]
                row.append(round(res.total_throughput_pps / 1e6, 3))
        rows.append(row)
    return render_table(
        ["chain len", "SC Default", "SC NFVnice", "MC Default", "MC NFVnice"],
        rows, title="Figure 16: throughput (Mpps) vs chain length",
    )


def main(duration_s: float = 1.0) -> str:
    return render_cases(run_cases(run_case, campaign_cases(duration_s)))


if __name__ == "__main__":  # pragma: no cover - manual runs
    print(main())
