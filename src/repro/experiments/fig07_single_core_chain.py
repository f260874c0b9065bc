"""Figure 7 + Tables 3-4: a 3-NF chain sharing one core (paper §4.2.1).

Chain: NF1 Low (120 cycles) → NF2 Medium (270) → NF3 High (550), all on
one shared core, 64-byte packets offered at line rate.  Compared systems:
Default, CGroup only, backpressure only, and full NFVnice, under NORMAL,
BATCH, RR(1 ms) and RR(100 ms).

* Figure 7 — chain throughput per (scheduler, system).
* Table 3 — packet drop rate at NF1/NF2 *after processing* (wasted work).
* Table 4 — per-NF average scheduling delay and total runtime.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.experiments.common import CaseSpec, FEATURE_SETS, Scenario, \
    ScenarioResult, build_linear_chain, run_cases
from repro.metrics.report import render_table

CHAIN_COSTS = (120.0, 270.0, 550.0)
SCHEDULERS = ("NORMAL", "BATCH", "RR_1MS", "RR_100MS")
SYSTEMS = tuple(FEATURE_SETS)  # Default, CGroup, OnlyBKPR, NFVnice


def run_case(scheduler: str, features: str, duration_s: float = 2.0,
             costs: Tuple[float, ...] = CHAIN_COSTS,
             seed: int = 0) -> ScenarioResult:
    scenario = Scenario(scheduler=scheduler, features=features, seed=seed,
                        telemetry=True)
    build_linear_chain(scenario, costs, core=0)
    scenario.add_flow("flow", "chain", line_rate_fraction=1.0)
    return scenario.run(duration_s)


def campaign_cases(duration_s: float = 2.0) -> List[CaseSpec]:
    """The (scheduler x system) grid as independently runnable cases."""
    return [
        CaseSpec(key=(sched, system),
                 kwargs={"scheduler": sched, "features": system,
                         "duration_s": duration_s, "seed": 0})
        for sched in SCHEDULERS
        for system in SYSTEMS
    ]


def render_cases(results: Dict[Tuple[str, str], ScenarioResult]) -> str:
    """The full artifact from a completed case grid (same as ``main``)."""
    return "\n".join([
        format_figure7(results),
        format_table3(results),
        format_table4(results),
        format_slo(results),
        format_attribution(results),
    ])


def format_figure7(results: Dict[Tuple[str, str], ScenarioResult]) -> str:
    """Figure 7's bars: throughput in Mpps, mean (min-max of 1 s samples)."""
    schedulers = sorted({k[0] for k in results}, key=SCHEDULERS.index)
    systems = sorted({k[1] for k in results}, key=SYSTEMS.index)
    rows: List[list] = []
    for sched in schedulers:
        row: List[object] = [sched]
        for system in systems:
            res = results[(sched, system)]
            mean, lo, hi = res.chain("chain").tput_series
            row.append(f"{mean / 1e6:.2f} ({lo / 1e6:.2f}-{hi / 1e6:.2f})")
        rows.append(row)
    return render_table(
        ["sched"] + [f"{s} Mpps" for s in systems], rows,
        title="Figure 7: 3-NF chain throughput on one core",
    )


def format_table3(results: Dict[Tuple[str, str], ScenarioResult]) -> str:
    """Table 3: drops of already-processed packets, Default vs NFVnice."""
    schedulers = sorted({k[0] for k in results}, key=SCHEDULERS.index)
    rows: List[list] = []
    for nf_name, label in (("nf1", "NF1"), ("nf2", "NF2")):
        row: List[object] = [label]
        for sched in schedulers:
            for system in ("Default", "NFVnice"):
                res = results[(sched, system)]
                row.append(res.nf(nf_name).wasted_pps)
        rows.append(row)
    headers = ["NF"]
    for sched in schedulers:
        headers += [f"{sched}/Def", f"{sched}/NFVn"]
    return render_table(headers, rows,
                        title="Table 3: packet drop rate per second "
                              "(processed upstream, dropped downstream)")


def format_table4(results: Dict[Tuple[str, str], ScenarioResult]) -> str:
    """Table 4: average scheduling delay (ms) and runtime (ms) per NF."""
    schedulers = sorted({k[0] for k in results}, key=SCHEDULERS.index)
    rows: List[list] = []
    for i in (1, 2, 3):
        for metric in ("delay", "runtime"):
            row: List[object] = [f"NF{i}-{metric}"]
            for sched in schedulers:
                for system in ("Default", "NFVnice"):
                    res = results[(sched, system)]
                    nf = res.nf(f"nf{i}")
                    if metric == "delay":
                        row.append(round(nf.avg_sched_delay_ms, 3))
                    else:
                        row.append(round(nf.runtime_s * 1e3, 1))
            rows.append(row)
    headers = ["NF/metric"]
    for sched in schedulers:
        headers += [f"{sched}/Def", f"{sched}/NFVn"]
    return render_table(headers, rows,
                        title="Table 4: scheduling delay and runtime (ms)")


def format_slo(results: Dict[Tuple[str, str], ScenarioResult]) -> str:
    """Per-flow sojourn SLO percentiles (exact, every delivered packet)."""
    from repro.obs.latency import percentile_row

    schedulers = sorted({k[0] for k in results}, key=SCHEDULERS.index)
    systems = sorted({k[1] for k in results}, key=SYSTEMS.index)
    rows: List[list] = []
    for sched in schedulers:
        for system in systems:
            res = results[(sched, system)]
            hist = (res.flow_latency.get("flows") or {}).get("flow")
            if hist is None:
                rows.append([f"{sched}/{system}", "-", "-", "-", "-", "-"])
                continue
            row = percentile_row(hist)
            rows.append([f"{sched}/{system}", row["count"], row["p50_us"],
                         row["p95_us"], row["p99_us"], row["p99_9_us"]])
    return render_table(
        ["sched/system", "pkts", "p50 us", "p95 us", "p99 us", "p99.9 us"],
        rows,
        title="SLO view: per-flow sojourn latency percentiles "
              "(flow 'flow', NIC arrival to chain exit)",
    )


def format_attribution(results: Dict[Tuple[str, str], ScenarioResult]) -> str:
    """Per-NF throttle-induced-delay attribution across the grid."""
    from repro.obs.causality import ATTRIBUTION_HEADERS, attribution_rows

    schedulers = sorted({k[0] for k in results}, key=SCHEDULERS.index)
    systems = sorted({k[1] for k in results}, key=SYSTEMS.index)
    rows: List[list] = []
    for sched in schedulers:
        for system in systems:
            for row in attribution_rows(results[(sched, system)].causality):
                rows.append([f"{sched}/{system}"] + row)
    if not rows:
        rows.append(["(no backpressure activity)", "-", 0, 0.0, 0.0, 0, 0])
    return render_table(
        ["sched/system"] + ATTRIBUTION_HEADERS, rows,
        title="Backpressure attribution: who caused the queueing "
              "(throttle episodes and their per-flow cost)",
    )


def main(duration_s: float = 2.0) -> str:
    return render_cases(run_cases(run_case, campaign_cases(duration_s)))


if __name__ == "__main__":  # pragma: no cover - manual runs
    print(main())
