"""CI smoke test for the SLO scheduler family and tail-latency battery.

Runs the ``slo_battery`` campaign (bursty/flash/mixed workloads x
NORMAL/EDF/DEADLINE schedulers) short-horizon with two workers and
checks two things against the committed ``benchmarks/BENCH_slo.json``:

* the per-experiment **digest** — the battery is deterministic, so any
  drift means scheduling, arrival-model, or governor behaviour changed
  and the baseline must be consciously regenerated;
* the per-cell **p99 sojourn grid** (digest-invisible telemetry, so the
  digest alone would not catch it): each recorded gold/bulk p99 may not
  regress by more than 10% relative *and* at least 1 µs absolute — the
  same tolerance semantics as ``repro obs diff``.

The battery's shape — EDF beats NORMAL on gold-class p99 in at least one
workload — is the ``slo_battery`` row of the paper-claims table
(:mod:`repro.experiments.claims`), evaluated on this campaign's own
cells, so a change that silently erases the win fails CI even inside
the drift tolerance::

    PYTHONPATH=src python benchmarks/slo_smoke.py            # check
    PYTHONPATH=src python benchmarks/slo_smoke.py --write    # regen

The committed baseline stores ``task_wall_s`` as 0 on purpose: the
digest check is machine-independent, wall-clock is not, and
``check_campaign`` skips the wall comparison for zero baselines.

Environment: ``REPRO_SLO_DURATION`` overrides the simulated seconds per
case (default 0.1 — must match the committed baseline when checking).
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments.claims import (        # noqa: E402
    campaign_results, claims_of, evaluate, render_claims,
)
from repro.experiments.slo_battery import (   # noqa: E402
    SCHEDULERS, WORKLOADS, _flow_id,
)
from repro.obs.latency import percentile_row  # noqa: E402
from repro.runner.baseline import (           # noqa: E402
    SCHEMA_VERSION, check_campaign, check_p99, load_baseline,
)
from repro.runner.campaign import run_campaign  # noqa: E402

BASELINE = os.path.join(os.path.dirname(__file__), "BENCH_slo.json")
DEFAULT_DURATION = 0.1


def p99_grid(report) -> dict:
    """``{"<class>.<workload>.<sched>": p99_us}`` from merged telemetry."""
    flows = (report.telemetry.get("flow_latency") or {}).get("flows", {})
    grid = {}
    for workload in WORKLOADS:
        for scheduler in SCHEDULERS:
            for cls in ("gold", "bulk"):
                flow_id = _flow_id(cls, workload, scheduler)
                hist = flows.get(flow_id)
                if hist is not None:
                    grid[flow_id] = round(percentile_row(hist)["p99_us"], 3)
    return grid


def main() -> int:
    write = "--write" in sys.argv[1:]
    duration = float(os.environ.get("REPRO_SLO_DURATION",
                                    str(DEFAULT_DURATION)))

    print(f"[slo-smoke] slo_battery campaign at {duration}s per case")
    campaign = run_campaign(["slo_battery"], workers=2,
                            duration_s=duration, task_timeout_s=300.0)
    report = campaign.experiments["slo_battery"]
    if not report.ok:
        for failure in report.failures:
            print(f"[slo-smoke] FAIL {failure}")
        return 1
    grid = p99_grid(report)
    print(f"[slo-smoke] {len(report.tasks)} cases ok, "
          f"digest {report.digest[:12]}…, {len(grid)} p99 cells")

    try:
        verdicts = evaluate(claims_of("slo_battery"),
                            campaign_results(report))
    except ValueError as exc:
        print(f"[slo-smoke] {exc}")
        return 1
    print(render_claims(verdicts))
    if not all(v.ok for v in verdicts):
        print("[slo-smoke] CLAIM FAILED: see the table above")
        return 1

    if write:
        data = {
            "version": SCHEMA_VERSION,
            "experiments": {
                "slo_battery": {
                    "digest": report.digest,
                    # Zeroed on purpose: digests travel between machines,
                    # wall clocks do not (check_campaign skips wall
                    # comparison when the baseline records 0).
                    "task_wall_s": 0.0,
                    "sim_seconds": report.sim_seconds,
                    "sim_time_throughput": None,
                    "tasks": len(report.tasks),
                },
            },
            # Digest-invisible telemetry pinned separately (extra keys
            # are ignored by load_baseline's schema check).
            "slo_p99_us": grid,
        }
        with open(BASELINE, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[slo-smoke] baseline written to {BASELINE}")
        return 0

    try:
        baseline = load_baseline(BASELINE)
    except (OSError, ValueError) as exc:
        print(f"[slo-smoke] cannot load baseline: {exc}")
        return 1
    problems = check_campaign(baseline, campaign)
    problems += check_p99(baseline.get("slo_p99_us", {}), grid)
    for problem in problems:
        print(f"[slo-smoke] CHECK FAILED {problem}")
    if problems:
        print("[slo-smoke] regenerate with --write if the change is "
              "intentional")
        return 1
    print(f"[slo-smoke] check passed against {BASELINE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
