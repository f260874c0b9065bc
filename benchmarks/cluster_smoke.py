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
* the battery's reason to exist, asserted **structurally** so a change
  that silently erases it fails CI even inside the drift tolerance: the
  2-host flash-crowd cell must scale out at least once, and elastic
  provisioning must beat static on gold p99 in every flash cell::

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

from repro.analysis.export import result_from_dict   # noqa: E402
from repro.experiments.cluster_scaling import (      # noqa: E402
    HOSTS, MODES, WORKLOADS, _tag, cluster_block, gold_p99_us,
)
from repro.runner.baseline import (                  # noqa: E402
    SCHEMA_VERSION, check_campaign, check_p99, load_baseline,
)
from repro.runner.campaign import run_campaign       # noqa: E402

BASELINE = os.path.join(os.path.dirname(__file__), "BENCH_cluster.json")
DEFAULT_DURATION = 0.3


def cell_results(report) -> dict:
    """``{(workload, hosts, mode): ScenarioResult}`` with telemetry."""
    results = {}
    for outcome in report.tasks:
        result = result_from_dict(outcome.payload["value"])
        extra = outcome.payload.get("telemetry") or {}
        result.flow_latency = extra.get("flow_latency", {})
        results[tuple(outcome.spec.key)] = result
    return results


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


def structural_problems(results: dict, grid: dict) -> list:
    problems = []
    flash_auto = results.get(("flash", 2, "auto"))
    if flash_auto is None:
        problems.append("flash.h2.auto cell missing from campaign")
    else:
        scaler = cluster_block(flash_auto).get("autoscaler", {})
        scale_outs = scaler.get("scale_outs", 0)
        if not isinstance(scale_outs, int) or scale_outs < 1:
            problems.append(
                f"flash.h2.auto scaled out {scale_outs} times; the flash "
                f"crowd must force at least one scale-out")
    for hosts in HOSTS:
        auto = grid.get(_tag("flash", hosts, "auto"))
        static = grid.get(_tag("flash", hosts, "static"))
        if auto is None or static is None:
            problems.append(f"flash h{hosts}: p99 cell missing")
        elif auto >= static:
            problems.append(
                f"CROSSOVER LOST flash h{hosts}: auto p99 {auto:.1f}us "
                f"is not below static {static:.1f}us")
    return problems


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
    results = cell_results(report)
    grid = p99_grid(results)
    print(f"[cluster-smoke] {len(report.tasks)} cases ok, "
          f"digest {report.digest[:12]}…, {len(grid)} p99 cells")

    problems = structural_problems(results, grid)
    for problem in problems:
        print(f"[cluster-smoke] STRUCTURAL {problem}")
    if problems:
        return 1
    flash = cluster_block(results[("flash", 2, "auto")])
    scaler = flash.get("autoscaler", {})
    print(f"[cluster-smoke] flash.h2.auto: {scaler.get('scale_outs', 0)} "
          f"scale-out(s), {scaler.get('replicas', 0)} replica(s), gold "
          f"p99 {grid['flash.h2.auto']:.1f}us vs static "
          f"{grid['flash.h2.static']:.1f}us")

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
