"""Trace-overhead smoke benchmark: the telemetry layer must stay cheap.

Runs the same Figure-7-style chain workload in three variants:

* **disabled** — no observer attached (the default every experiment runs
  with); each event site pays exactly one ``is not None`` branch.
* **enabled-inert** — an empty :class:`~repro.obs.observer.Observer` (no
  bus, tracer or tracker) wired into every component instead of being
  left out as unconsumed, so every event site makes its typed call and
  the observer finds no sink — this variant measures the per-site
  dispatch cost of the observation path.
* **telemetry** — a :class:`~repro.obs.latency.FlowLatencyTracker` and
  :class:`~repro.obs.causality.CausalityTracer` attached: every delivered
  segment lands in latency histograms and every backpressure transition
  is traced.  This is the ``Scenario(telemetry=True)`` path fig07/fig09
  run on.

Fails (exit 1) if

* the inert observer costs more than ``BUS_THRESHOLD`` (5%) over disabled,
* full SLO telemetry costs more than ``TELEMETRY_THRESHOLD`` (10%) over
  disabled, or
* the result digest is not bit-identical with telemetry on and off —
  telemetry is observational by contract and must never perturb the
  simulation (the campaign runner's digests depend on it).

Noise handling: timing uses ``time.process_time()`` — CPU time of this
process only, immune to the machine-load drift that makes wall-clock
ratios swing tens of percent on a shared box.  On top of that, each
round runs the variants back to back and the gate takes the **minimum
per-round ratio** over ``ROUNDS`` rounds: adjacent runs see the same
cache/frequency state, and residual interference can only inflate a
round's ratio, so the minimum is the tightest observed bound on the
true overhead.

Usage::

    PYTHONPATH=src python benchmarks/obs_overhead_smoke.py
"""

import sys
import time

from repro.experiments.common import Scenario, build_linear_chain
from repro.obs.observer import Observer

BUS_THRESHOLD = 0.05
TELEMETRY_THRESHOLD = 0.10
ROUNDS = 5
DURATION_S = 0.05


class InertObserver(Observer):
    """An observer with no sinks that every component is wired with."""

    def serving(self, *sinks):
        return self


def run_workload(variant: str):
    """One seeded chain run; returns (wall seconds, ScenarioResult)."""
    scenario = Scenario(scheduler="BATCH", features="NFVnice", seed=0,
                        telemetry=(variant == "telemetry"))
    build_linear_chain(scenario, (120, 270, 550), core=0)
    scenario.add_flow("f", "chain", line_rate_fraction=1.0)
    if variant == "bus":
        scenario.manager.attach_observability(InertObserver())
    t0 = time.process_time()
    result = scenario.run(DURATION_S)
    return time.process_time() - t0, result


def main() -> int:
    from repro.analysis.export import result_to_dict
    from repro.runner.digest import digest_of

    # Warm-up: import costs, allocator pools, branch caches.
    for variant in ("off", "bus", "telemetry"):
        run_workload(variant)
    best = {}
    ratios = {"bus": [], "telemetry": []}
    digests = {}
    for _ in range(ROUNDS):
        walls = {}
        for variant in ("off", "bus", "telemetry"):
            wall, result = run_workload(variant)
            walls[variant] = wall
            best[variant] = min(best.get(variant, wall), wall)
            digests[variant] = digest_of(result_to_dict(result))
        for variant in ("bus", "telemetry"):
            ratios[variant].append(walls[variant] / walls["off"])
    rc = 0
    bus_overhead = min(ratios["bus"]) - 1.0
    tel_overhead = min(ratios["telemetry"]) - 1.0
    print(f"observability disabled: best of {ROUNDS}  "
          f"{best['off'] * 1e3:8.1f} ms")
    print(f"inert observer:         best of {ROUNDS}  "
          f"{best['bus'] * 1e3:8.1f} ms  ({bus_overhead * 100:+.1f}%, "
          f"threshold {BUS_THRESHOLD * 100:.0f}%)")
    print(f"full SLO telemetry:     best of {ROUNDS}  "
          f"{best['telemetry'] * 1e3:8.1f} ms  ({tel_overhead * 100:+.1f}%, "
          f"threshold {TELEMETRY_THRESHOLD * 100:.0f}%)")
    if bus_overhead > BUS_THRESHOLD:
        print("FAIL: an attached observer exceeds the overhead budget",
              file=sys.stderr)
        rc = 1
    if tel_overhead > TELEMETRY_THRESHOLD:
        print("FAIL: SLO telemetry exceeds the overhead budget",
              file=sys.stderr)
        rc = 1
    if digests["telemetry"] != digests["off"]:
        print("FAIL: telemetry perturbed the result digest "
              f"({digests['telemetry']} != {digests['off']})",
              file=sys.stderr)
        rc = 1
    else:
        print(f"digest identical with telemetry on/off: {digests['off']}")
    if rc == 0:
        print("OK")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
