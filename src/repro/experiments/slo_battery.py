"""The SLO tail-latency scenario battery (NFVnice-vs-EDF crossover).

Every cell shares one worker core between a latency-sensitive **gold**
chain (2 cheap NFs, 500 µs end-to-end SLO) and a throughput-hungry
**bulk** chain (2 expensive NFs, 5 ms SLO) — the mixed-criticality
consolidation the SLO-scheduling literature studies.  Three workloads
stress the tail differently:

* ``bursty`` — gold traffic is Pareto on-off (heavy-tailed bursts far
  above the core's capacity, silent gaps between);
* ``flash``  — gold traffic ramps through a flash-crowd envelope
  (baseline → 6x peak → decay);
* ``mixed``  — steady MMPP gold under a near-saturating Poisson bulk
  load: the crossover cell where deadline-blind fair-share scheduling
  hurts the gold tail most.

Each workload runs under three schedulers: ``NORMAL`` (NFVnice's
cgroup-weighted CFS), ``EDF`` (earliest head-of-ring deadline first),
and ``DEADLINE`` (deadline-cognizant CFS steered by the Monitor's
:class:`~repro.core.monitor.SLOGovernor`, with one spare core it may
migrate the bottleneck NF onto).  The report prints the gold/bulk p99
sojourn grid — the table ``benchmarks/BENCH_slo.json`` pins.

NF, chain and flow names carry a per-cell tag so the campaign runner's
merged telemetry keeps per-cell percentile rows (merging histograms of
identically named flows would blur the grid).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.experiments.common import CaseSpec, Scenario, ScenarioResult, \
    run_cases
from repro.metrics.report import render_table
from repro.obs.latency import percentile_row

WORKLOADS = ("bursty", "flash", "mixed")
SCHEDULERS = ("NORMAL", "EDF", "DEADLINE")

GOLD_SLO_US = 500.0
SILVER_SLO_US = 5000.0

#: Per-NF packet costs (cycles): gold is cheap, bulk is heavy.
GOLD_COSTS = (120.0, 270.0)
BULK_COSTS = (270.0, 550.0)


def _flow_id(chain: str, workload: str, scheduler: str) -> str:
    return f"{chain}.{workload}.{scheduler}"


def run_case(workload: str, scheduler: str, duration_s: float = 1.0,
             seed: int = 0) -> ScenarioResult:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    tag = f"{workload}.{scheduler}"
    scenario = Scenario(
        scheduler=scheduler,
        features="NFVnice",
        seed=seed,
        telemetry=True,
        # The DEADLINE governor may reallocate the bottleneck NF onto a
        # spare core; the other schedulers keep the single shared core.
        spare_cores=(1,) if scheduler == "DEADLINE" else (),
    )
    for i, cost in enumerate(GOLD_COSTS, start=1):
        scenario.add_nf(f"g{i}.{tag}", cost, core=0)
    for i, cost in enumerate(BULK_COSTS, start=1):
        scenario.add_nf(f"b{i}.{tag}", cost, core=0)
    gold_chain = f"gold.{tag}"
    bulk_chain = f"bulk.{tag}"
    scenario.add_chain(gold_chain, [f"g{i}.{tag}"
                                    for i in range(1, len(GOLD_COSTS) + 1)])
    scenario.add_chain(bulk_chain, [f"b{i}.{tag}"
                                    for i in range(1, len(BULK_COSTS) + 1)])
    scenario.add_slo_class("gold", GOLD_SLO_US)
    scenario.add_slo_class("silver", SILVER_SLO_US)

    gold_flow = _flow_id("gold", workload, scheduler)
    bulk_flow = _flow_id("bulk", workload, scheduler)
    if workload == "bursty":
        scenario.add_flow(gold_flow, gold_chain, rate_pps=900_000,
                          slo_class="gold", pattern="pareto_onoff")
        scenario.add_flow(bulk_flow, bulk_chain, rate_pps=1_500_000,
                          slo_class="silver")
    elif workload == "flash":
        scenario.add_flow(gold_flow, gold_chain, rate_pps=600_000,
                          slo_class="gold", pattern="flash_crowd",
                          model_params={"peak_factor": 6.0})
        scenario.add_flow(bulk_flow, bulk_chain, rate_pps=1_500_000,
                          slo_class="silver")
    else:  # mixed: steady gold under a near-saturating bulk load
        scenario.add_flow(gold_flow, gold_chain, rate_pps=500_000,
                          slo_class="gold", pattern="mmpp")
        scenario.add_flow(bulk_flow, bulk_chain, rate_pps=2_400_000,
                          slo_class="silver", pattern="poisson")
    return scenario.run(duration_s)


def flow_p99_us(result: ScenarioResult, flow_id: str) -> Optional[float]:
    """p99 sojourn (µs) of one flow from a result's exact telemetry."""
    hist = result.flow_latency.get("flows", {}).get(flow_id)
    if hist is None:
        return None
    return percentile_row(hist)["p99_us"]


def campaign_cases(duration_s: float = 1.0) -> List[CaseSpec]:
    return [
        CaseSpec(key=(workload, scheduler),
                 kwargs={"workload": workload, "scheduler": scheduler,
                         "duration_s": duration_s, "seed": 0})
        for workload in WORKLOADS
        for scheduler in SCHEDULERS
    ]


def render_cases(results: Dict[Tuple[str, str], ScenarioResult]) -> str:
    return format_battery(results)


def format_battery(results: Dict[Tuple[str, str], ScenarioResult]) -> str:
    workloads = sorted({k[0] for k in results},
                       key=lambda w: WORKLOADS.index(w))
    rows: List[list] = []
    for workload in workloads:
        row: List[object] = [workload]
        best: Optional[Tuple[float, str]] = None
        for scheduler in SCHEDULERS:
            res = results.get((workload, scheduler))
            if res is None:
                row.extend(["-", "-"])
                continue
            gold = flow_p99_us(res, _flow_id("gold", workload, scheduler))
            bulk = flow_p99_us(res, _flow_id("bulk", workload, scheduler))
            row.append("-" if gold is None else gold)
            row.append("-" if bulk is None else bulk)
            if gold is not None and (best is None or gold < best[0]):
                best = (gold, scheduler)
        row.append(best[1] if best is not None else "-")
        deadline = results.get((workload, "DEADLINE"))
        if deadline is not None and deadline.slo:
            row.append(f"{deadline.slo['misses']}m/"
                       f"{deadline.slo['migrations']}r")
        else:
            row.append("-")
        rows.append(row)
    header = ["workload"]
    for scheduler in SCHEDULERS:
        header.extend([f"{scheduler} gold p99", f"{scheduler} bulk p99"])
    header.extend(["best gold", "governor"])
    return render_table(
        header, rows,
        title=("SLO battery: p99 sojourn (us) per flow class — "
               f"gold SLO {GOLD_SLO_US:g} us, silver {SILVER_SLO_US:g} us"),
    )


def main(duration_s: float = 1.0) -> str:
    return render_cases(run_cases(run_case, campaign_cases(duration_s)))


if __name__ == "__main__":  # pragma: no cover - manual runs
    print(main())
