"""Chaos experiment: fault kind x detection period x recovery policy.

The paper evaluates NFVnice against slow and unfair NFs; this experiment
evaluates the platform against *broken* ones.  The workload is the §4.2
Low/Medium/High chain on one shared core under NFVnice features; a third
of the way into the run one fault fires at the middle NF (or its core),
and the watchdog/recovery pipeline takes it from there.  The grid sweeps:

* fault kind — crash, hang, ring_stall (core_fail is exercised by the
  unit tests; it behaves like a 3-wide crash here),
* watchdog detection period — how long the NF must look dead,
* recovery policy — cold/warm restart, restart behind a backpressure
  shield, or writing the chain off entirely.

Each case reports availability, detection and recovery latency, packets
lost vs requeued, and the throughput dip (depth and width) measured by a
fine-grained 10 ms probe around the fault.  All of it lands in
``ScenarioResult.resilience``, so campaign digests cover every number.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.experiments.common import CaseSpec, Scenario, ScenarioResult, \
    build_linear_chain, run_cases
from repro.faults.metrics import throughput_dip
from repro.faults.plan import FaultPlan, FaultSpec
from repro.metrics.report import render_table
from repro.metrics.timeseries import IntervalSampler
from repro.sim.clock import MSEC, SEC

COSTS = (120.0, 270.0, 550.0)
#: The middle (Medium-cost) NF takes the hit.
FAULT_TARGET = "nf2"
KINDS = ("crash", "hang", "ring_stall")
POLICIES = ("restart-cold", "restart-warm", "restart-backpressure",
            "fail-chain")
DETECTION_MS = (2.0, 8.0)
#: Offered load as a fraction of 64-byte line rate: enough to keep rings
#: occupied (so losses are visible) without saturating the core (so the
#: dip and the recovery are visible too).
LOAD_FRACTION = 0.4
PROBE_PERIOD_NS = 10 * MSEC


def run_case(kind: str, policy: str, detection_ms: float,
             duration_s: float = 1.0, seed: int = 0,
             features: str = "NFVnice") -> ScenarioResult:
    scenario = Scenario(scheduler="NORMAL", features=features, seed=seed)
    build_linear_chain(scenario, COSTS, core=0)
    scenario.add_flow("flow", "chain", line_rate_fraction=LOAD_FRACTION)
    fault_at_s = round(duration_s / 3.0, 6)
    plan = FaultPlan(
        specs=[FaultSpec(kind=kind, target=FAULT_TARGET, at_s=fault_at_s)],
        policy=policy,
        detection_period_s=detection_ms / 1e3,
        restart_delay_s=1e-3,
    )
    scenario.attach_faults(plan)
    # Fine-grained throughput probe: the 1 s samples of §4.1 average the
    # outage away; the dip needs 10 ms resolution.
    fine = IntervalSampler(scenario.loop, PROBE_PERIOD_NS)
    fine.add_probe("tput", lambda: scenario.manager.total_completed)
    fine.start()
    result = scenario.run(duration_s)
    samples = list(zip(fine.series["tput"].times,
                       fine.series["tput"].values))
    result.resilience["throughput_dip"] = throughput_dip(
        samples, int(fault_at_s * SEC))
    return result


def campaign_cases(duration_s: float = 1.0) -> List[CaseSpec]:
    return [
        CaseSpec(key=(kind, policy, det),
                 kwargs={"kind": kind, "policy": policy,
                         "detection_ms": det, "duration_s": duration_s,
                         "seed": 0})
        for kind in KINDS
        for policy in POLICIES
        for det in DETECTION_MS
    ]


def render_cases(results: Dict[Tuple[str, str, float], ScenarioResult]) -> str:
    return format_chaos(results)


def format_chaos(results: Dict[Tuple[str, str, float], ScenarioResult]) -> str:
    rows: List[list] = []
    for kind in KINDS:
        for policy in POLICIES:
            for det in DETECTION_MS:
                key = (kind, policy, det)
                if key not in results:
                    continue
                res = results[key]
                r = res.resilience
                dl = r.get("detection_latency", {})
                rl = r.get("recovery_latency", {})
                dip = r.get("throughput_dip", {})
                rows.append([
                    kind, policy, det,
                    round(r.get("availability", 1.0), 4),
                    round(dl.get("mean_ns", 0.0) / 1e6, 2),
                    round(rl.get("mean_ns", 0.0) / 1e6, 2),
                    r.get("packets_lost", 0),
                    r.get("packets_requeued", 0),
                    round(100.0 * dip.get("depth_frac", 0.0), 1),
                    round(dip.get("width_ns", 0) / 1e6, 1),
                    round(res.total_throughput_pps / 1e6, 3),
                ])
    return render_table(
        ["fault", "policy", "det ms", "avail", "detect ms", "recover ms",
         "lost", "requeued", "dip %", "dip ms", "tput Mpps"],
        rows,
        title="chaos_recovery: fault x detection period x recovery policy",
    )


def main(duration_s: float = 1.0) -> str:
    return render_cases(run_cases(run_case, campaign_cases(duration_s)))


if __name__ == "__main__":  # pragma: no cover - manual runs
    print(main())
