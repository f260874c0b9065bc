"""The cluster auto-scaling battery (elastic vs static provisioning).

Every cell offers the same overload — a flow population whose aggregate
demand is ~1.5x one replica's capacity — to a cluster that starts with a
single replica of a two-NF service chain (500 + 800 cycles/packet,
500 µs gold SLO).  Two arrival shapes stress the autoscaler
differently:

* ``flash`` — a steady 600 kpps base load, then a flash crowd of ten
  200 kpps flows arriving 40 ms apart from t=100 ms: demand triples in
  under half a second and the control loop must add replicas *ahead* of
  the wave (bound flows can never be re-steered, so a melted replica
  stays melted);
* ``mmpp``  — eight 250 kpps Markov-modulated flows arriving 50 ms
  apart: bursty ramps that exercise the occupancy (reactive) trigger on
  top of the load (predictive) one.

Each workload runs on 2-, 4- and 8-host clusters in two modes: ``auto``
(the :class:`~repro.cluster.autoscaler.Autoscaler` may place replicas on
any free ``(host, core)`` slot) and ``static`` (the initial replica is
all there is).  The report prints the merged gold p99 sojourn per cell —
elastic provisioning must beat static by orders of magnitude once the
offered load crosses one replica's capacity — plus the scale-out count
and final replica census from the digest-covered
``resilience["cluster"]`` block.

Chain and flow names carry a per-cell tag so the campaign runner's
merged telemetry keeps per-cell percentile rows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster import ClusterScenario
from repro.experiments.common import CaseSpec, ScenarioResult, run_cases
from repro.metrics.histogram import CycleHistogram
from repro.metrics.report import render_table

WORKLOADS = ("flash", "mmpp")
HOSTS = (2, 4, 8)
MODES = ("auto", "static")

GOLD_SLO_US = 500.0
#: Per-NF packet costs (cycles): ~1.73 Mpps capacity per replica core.
CHAIN_COSTS = (500.0, 800.0)

#: Case key -> (workload, hosts, mode).
CaseKey = Tuple[str, int, str]


def _tag(workload: str, hosts: int, mode: str) -> str:
    return f"{workload}.h{hosts}.{mode}"


def run_case(workload: str, hosts: int, mode: str,
             duration_s: float = 0.75, seed: int = 0) -> ScenarioResult:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    tag = _tag(workload, hosts, mode)
    scenario = ClusterScenario(n_hosts=hosts, scheduler="NORMAL",
                               features="NFVnice", seed=seed)
    scenario.add_slo_class("gold", GOLD_SLO_US)
    scenario.set_chain(f"svc.{tag}", CHAIN_COSTS, slo_us=GOLD_SLO_US,
                       placements=((0, 0),))
    if mode == "auto":
        # Every second core of every host is elastic capacity; the
        # initial replica owns (0, 0).
        scenario.enable_autoscaler(
            slots=[(h, c) for h in range(hosts) for c in (0, 1)
                   if (h, c) != (0, 0)])

    msec = 1_000_000
    if workload == "flash":
        for i in range(4):
            scenario.add_flow(f"base{i}.{tag}", rate_pps=150_000,
                              slo_class="gold")
        for i in range(10):
            scenario.add_flow(f"crowd{i}.{tag}", rate_pps=200_000,
                              slo_class="gold",
                              start_ns=(100 + 40 * i) * msec)
    else:  # mmpp
        for i in range(8):
            scenario.add_flow(f"mmpp{i}.{tag}", rate_pps=250_000,
                              slo_class="gold", pattern="mmpp",
                              start_ns=50 * i * msec)
    return scenario.run(duration_s)


def gold_p99_us(result: ScenarioResult) -> Optional[float]:
    """p99 sojourn (µs) over every gold flow of one cell, merged.

    A cell's flows land on different replicas (different per-chain
    histograms), so the honest per-cell tail merges the per-flow
    histograms — same buckets, so the merge is exact.
    """
    merged: Optional[CycleHistogram] = None
    for hist_dict in result.flow_latency.get("flows", {}).values():
        hist = CycleHistogram.from_dict(hist_dict)
        merged = hist if merged is None else merged.merge(hist)
    if merged is None or merged.count == 0:
        return None
    return merged.percentile(99.0) / 1e3


def cluster_block(result: ScenarioResult) -> Dict[str, object]:
    """The digest-covered cluster accounting of one cell."""
    block = result.resilience.get("cluster", {})
    assert isinstance(block, dict)
    return block


def campaign_cases(duration_s: float = 0.75) -> List[CaseSpec]:
    return [
        CaseSpec(key=(workload, hosts, mode),
                 kwargs={"workload": workload, "hosts": hosts, "mode": mode,
                         "duration_s": duration_s, "seed": 0})
        for workload in WORKLOADS
        for hosts in HOSTS
        for mode in MODES
    ]


def render_cases(results: Dict[CaseKey, ScenarioResult]) -> str:
    return format_battery(results)


def format_battery(results: Dict[CaseKey, ScenarioResult]) -> str:
    rows: List[list] = []
    for workload in WORKLOADS:
        for hosts in HOSTS:
            auto = results.get((workload, hosts, "auto"))
            static = results.get((workload, hosts, "static"))
            if auto is None and static is None:
                continue
            row: List[object] = [workload, hosts]
            auto_p99 = None if auto is None else gold_p99_us(auto)
            static_p99 = None if static is None else gold_p99_us(static)
            row.append("-" if auto_p99 is None else auto_p99)
            row.append("-" if static_p99 is None else static_p99)
            if auto_p99 and static_p99:
                row.append(f"{static_p99 / auto_p99:.0f}x")
            else:
                row.append("-")
            if auto is not None:
                scaler = cluster_block(auto).get("autoscaler", {})
                assert isinstance(scaler, dict)
                row.append(scaler.get("scale_outs", 0))
                row.append(scaler.get("replicas", 0))
                row.append(auto.total_throughput_pps / 1e6)
            else:
                row.extend(["-", "-", "-"])
            row.append("-" if static is None
                       else static.total_throughput_pps / 1e6)
            rows.append(row)
    header = ["workload", "hosts", "auto p99 (us)", "static p99 (us)",
              "tail win", "scale-outs", "replicas",
              "auto Mpps", "static Mpps"]
    return render_table(
        header, rows,
        title=("cluster scaling battery: merged gold p99 sojourn, "
               f"SLO {GOLD_SLO_US:g} us, auto vs static provisioning"),
    )


def main(duration_s: float = 0.75) -> str:
    return render_cases(run_cases(run_case, campaign_cases(duration_s)))


if __name__ == "__main__":  # pragma: no cover - manual runs
    print(main())
