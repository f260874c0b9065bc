"""CI smoke test for the cluster auto-scaling battery.

Runs the ``cluster_scaling`` campaign (flash/mmpp arrivals x 2/4/8-host
clusters x auto/static provisioning) short-horizon with two workers and
checks three things against the committed ``benchmarks/BENCH_cluster.json``:

* the per-experiment **digest** — the battery is deterministic and
  worker-count invariant, so any drift means steering, fabric, autoscaler
  or scheduling behaviour changed and the baseline must be consciously
  regenerated;
* the per-cell **gold p99 sojourn grid** (digest-invisible telemetry, so
  the digest alone would not catch it): each recorded p99 may not regress
  by more than 10% relative *and* at least 1 µs absolute — the same
  tolerance semantics as ``repro obs diff``;
* the battery's reason to exist — the 2-host flash-crowd cell scales out
  at least once, and elastic provisioning beats static on gold p99 in
  every flash cell — taken from the ``cluster_scaling`` rows of the
  paper-claims table (:mod:`repro.experiments.claims`) and evaluated on
  this campaign's own cells, so a change that silently erases it fails
  CI even inside the drift tolerance::

    PYTHONPATH=src python benchmarks/cluster_smoke.py            # check
    PYTHONPATH=src python benchmarks/cluster_smoke.py --write    # regen

The committed baseline stores ``task_wall_s`` as 0 on purpose: the digest
check is machine-independent, wall-clock is not, and ``check_campaign``
skips the wall comparison for zero baselines.

Environment: ``REPRO_CLUSTER_DURATION`` overrides the simulated seconds
per case (default 0.3 — must match the committed baseline when checking;
shorter horizons end before the flash crowd forces a scale-out).
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments.claims import (               # noqa: E402
    campaign_results, claims_of, evaluate, render_claims,
)
from repro.experiments.cluster_scaling import (      # noqa: E402
    HOSTS, MODES, WORKLOADS, _tag, gold_p99_us,
)
from repro.runner.baseline import (                  # noqa: E402
    SCHEMA_VERSION, check_campaign, check_p99, load_baseline,
)
from repro.runner.campaign import outcome_result, run_campaign  # noqa: E402

BASELINE = os.path.join(os.path.dirname(__file__), "BENCH_cluster.json")
DEFAULT_DURATION = 0.3


def p99_grid(results: dict) -> dict:
    """``{"<workload>.h<hosts>.<mode>": gold p99 us}`` per cell."""
    grid = {}
    for workload in WORKLOADS:
        for hosts in HOSTS:
            for mode in MODES:
                result = results.get((workload, hosts, mode))
                if result is None:
                    continue
                p99 = gold_p99_us(result)
                if p99 is not None:
                    grid[_tag(workload, hosts, mode)] = round(p99, 3)
    return grid


def main() -> int:
    write = "--write" in sys.argv[1:]
    duration = float(os.environ.get("REPRO_CLUSTER_DURATION",
                                    str(DEFAULT_DURATION)))

    print(f"[cluster-smoke] cluster_scaling campaign at {duration}s "
          f"per case")
    campaign = run_campaign(["cluster_scaling"], workers=2,
                            duration_s=duration, task_timeout_s=300.0)
    report = campaign.experiments["cluster_scaling"]
    if not report.ok:
        for failure in report.failures:
            print(f"[cluster-smoke] FAIL {failure}")
        return 1
    grid = p99_grid({tuple(o.spec.key): outcome_result(o)
                     for o in report.tasks})
    print(f"[cluster-smoke] {len(report.tasks)} cases ok, "
          f"digest {report.digest[:12]}…, {len(grid)} p99 cells")

    try:
        verdicts = evaluate(claims_of("cluster_scaling"),
                            campaign_results(report))
    except ValueError as exc:
        print(f"[cluster-smoke] {exc}")
        return 1
    print(render_claims(verdicts))
    if not all(v.ok for v in verdicts):
        print("[cluster-smoke] CLAIM FAILED: see the table above")
        return 1

    if write:
        data = {
            "version": SCHEMA_VERSION,
            "experiments": {
                "cluster_scaling": {
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
            "cluster_gold_p99_us": grid,
        }
        with open(BASELINE, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[cluster-smoke] baseline written to {BASELINE}")
        return 0

    try:
        baseline = load_baseline(BASELINE)
    except (OSError, ValueError) as exc:
        print(f"[cluster-smoke] cannot load baseline: {exc}")
        return 1
    problems = check_campaign(baseline, campaign)
    problems += check_p99(baseline.get("cluster_gold_p99_us", {}), grid)
    for problem in problems:
        print(f"[cluster-smoke] CHECK FAILED {problem}")
    if problems:
        print("[cluster-smoke] regenerate with --write if the change is "
              "intentional")
        return 1
    print(f"[cluster-smoke] check passed against {BASELINE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
