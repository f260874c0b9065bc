"""Figure 9 + Table 6: two chains sharing NF instances across 4 cores
(§4.2.2, Figure 8).

* chain-1: NF1 (270) → NF2 (120) → NF4 (300)
* chain-2: NF1 (270) → NF3 (4500) → NF4 (300)

The same NF1 and NF4 instances serve both chains; each NF is pinned to a
dedicated core; MoonGen splits 64 B line rate 50/50 between the chains.

Chain-2 bottlenecks at NF3.  Without NFVnice, NF1 wastes its core on
chain-2 packets NF3 will drop, starving chain-1.  With backpressure the
chain-2 excess is shed at entry, NF1's freed cycles go to chain-1, and
chain-1's throughput roughly doubles while chain-2 holds its bottleneck
rate — per-chain selectivity is the point (chain B in Figure 5 is not
affected).
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import CaseSpec, Scenario, ScenarioResult, \
    run_cases
from repro.metrics.report import render_table

NF_COSTS = {"nf1": 270.0, "nf2": 120.0, "nf3": 4500.0, "nf4": 300.0}


def run_case(features: str, duration_s: float = 2.0,
             seed: int = 0) -> ScenarioResult:
    scenario = Scenario(
        scheduler="NORMAL", features=features, seed=seed, telemetry=True,
        # Two chain entry flows at an aggregate 14.88 Mpps: give the
        # manager two Rx threads as the testbed's dual-port setup would.
        num_rx_threads=2,
    )
    for core_id, (name, cost) in enumerate(NF_COSTS.items()):
        scenario.add_nf(name, cost, core=core_id)
    scenario.add_chain("chain1", ["nf1", "nf2", "nf4"])
    scenario.add_chain("chain2", ["nf1", "nf3", "nf4"])
    scenario.add_flow("flow1", "chain1", line_rate_fraction=0.5)
    scenario.add_flow("flow2", "chain2", line_rate_fraction=0.5)
    return scenario.run(duration_s)


def campaign_cases(duration_s: float = 2.0) -> List[CaseSpec]:
    return [
        CaseSpec(key=system,
                 kwargs={"features": system, "duration_s": duration_s,
                         "seed": 0})
        for system in ("Default", "NFVnice")
    ]


def render_cases(results: Dict[str, ScenarioResult]) -> str:
    return "\n".join([
        format_figure9(results),
        format_table6(results),
        format_slo(results),
        format_attribution(results),
    ])


def format_slo(results: Dict[str, ScenarioResult]) -> str:
    """Per-flow SLO percentiles: the latency cost chain-2's bottleneck
    imposes on each flow class under each system."""
    from repro.obs.latency import percentile_row

    rows: List[list] = []
    for system in ("Default", "NFVnice"):
        flows = results[system].flow_latency.get("flows") or {}
        for flow_id in ("flow1", "flow2"):
            hist = flows.get(flow_id)
            if hist is None:
                rows.append([f"{system}/{flow_id}", "-", "-", "-", "-", "-"])
                continue
            row = percentile_row(hist)
            rows.append([f"{system}/{flow_id}", row["count"], row["p50_us"],
                         row["p95_us"], row["p99_us"], row["p99_9_us"]])
    return render_table(
        ["system/flow", "pkts", "p50 us", "p95 us", "p99 us", "p99.9 us"],
        rows,
        title="SLO view: per-flow sojourn latency percentiles",
    )


def format_attribution(results: Dict[str, ScenarioResult]) -> str:
    """Who throttled whom: NF3's episodes should carry chain-2's cost."""
    from repro.obs.causality import ATTRIBUTION_HEADERS, attribution_rows

    rows: List[list] = []
    for system in ("Default", "NFVnice"):
        for row in attribution_rows(results[system].causality):
            rows.append([system] + row)
    if not rows:
        rows.append(["(no backpressure activity)", "-", 0, 0.0, 0.0, 0, 0])
    return render_table(
        ["system"] + ATTRIBUTION_HEADERS, rows,
        title="Backpressure attribution: per-NF throttle-induced delay",
    )


def format_figure9(results: Dict[str, ScenarioResult]) -> str:
    rows: List[list] = []
    for chain_name in ("chain1", "chain2"):
        row: List[object] = [chain_name]
        for system in ("Default", "NFVnice"):
            mean, lo, hi = results[system].chain(chain_name).tput_series
            row.append(f"{mean / 1e6:.2f} ({lo / 1e6:.2f}-{hi / 1e6:.2f})")
        rows.append(row)
    return render_table(
        ["chain", "Default Mpps", "NFVnice Mpps"], rows,
        title="Figure 9: two multi-core chains sharing NF1/NF4",
    )


def format_table6(results: Dict[str, ScenarioResult]) -> str:
    rows: List[list] = []
    for name in NF_COSTS:
        row: List[object] = [f"{name} (~{int(NF_COSTS[name])}cyc)"]
        for system in ("Default", "NFVnice"):
            res = results[system]
            nf = res.nf(name)
            row += [
                nf.processed_pps,
                nf.wasted_pps,
                f"{100 * res.core_utilization[nf.core_id]:.1f}%",
            ]
        rows.append(row)
    return render_table(
        ["NF", "Def svc pps", "Def drop pps", "Def CPU",
         "NFVn svc pps", "NFVn drop pps", "NFVn CPU"],
        rows,
        title="Table 6: shared-NF chains, per-NF service/drop/CPU",
    )


def main(duration_s: float = 2.0) -> str:
    return render_cases(run_cases(run_case, campaign_cases(duration_s)))


if __name__ == "__main__":  # pragma: no cover - manual runs
    print(main())
