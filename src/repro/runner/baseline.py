"""Campaign regression baselines.

The baseline file (``BENCH_campaign.json`` by convention) persists, per
experiment: the canonical result digest, the summed in-worker wall time,
the simulated seconds covered, and the derived simulated-time throughput.
``--check`` compares a fresh campaign against it:

* **digest drift** — any changed digest fails the check outright: the
  simulator is deterministic, so a drifted digest means behaviour changed;
* **wall-clock regression** — an experiment whose summed worker wall time
  exceeds baseline by more than ``max_regression`` (default 15 %) fails.
  Summed *per-task* wall time is used (not campaign elapsed time) so the
  measure is comparable across different ``--workers`` values.

Writing (the default, without ``--check``) merges into an existing file:
experiments not part of the current campaign keep their entries.

Digest-invisible p99 grids (the SLO and cluster smokes pin one each)
are compared by :func:`check_p99`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from repro.obs.stream import percentile_regression
from repro.runner.campaign import CampaignResult

SCHEMA_VERSION = 1


def baseline_entry(report) -> Dict:
    return {
        "digest": report.digest,
        "task_wall_s": round(report.task_wall_s, 6),
        "sim_seconds": report.sim_seconds,
        "sim_time_throughput": (
            round(report.sim_time_throughput, 6)
            if report.sim_time_throughput is not None else None),
        "tasks": len(report.tasks),
    }


def load_baseline(path: Union[str, Path]) -> Dict:
    with open(path) as fh:
        data = json.load(fh)
    version = data.get("version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported baseline version {version!r} in {path} "
            f"(expected {SCHEMA_VERSION})")
    return data


def write_baseline(path: Union[str, Path],
                   campaign: CampaignResult) -> Path:
    """Merge the campaign's successful experiments into the baseline."""
    path = Path(path)
    if path.exists():
        data = load_baseline(path)
    else:
        data = {"version": SCHEMA_VERSION, "experiments": {}}
    for exp_id, report in campaign.experiments.items():
        if report.ok:
            data["experiments"][exp_id] = baseline_entry(report)
    data["experiments"] = dict(sorted(data["experiments"].items()))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def check_campaign(baseline: Dict, campaign: CampaignResult,
                   max_regression: float = 0.15) -> List[str]:
    """Problems found comparing ``campaign`` to ``baseline`` (empty = pass)."""
    problems: List[str] = []
    entries = baseline.get("experiments", {})
    for exp_id, report in campaign.experiments.items():
        if not report.ok:
            problems.append(
                f"{exp_id}: campaign run failed "
                f"({'; '.join(report.failures)})")
            continue
        entry = entries.get(exp_id)
        if entry is None:
            problems.append(
                f"{exp_id}: no baseline entry — run without --check to "
                f"record one")
            continue
        if entry["digest"] != report.digest:
            problems.append(
                f"{exp_id}: result digest drift "
                f"(baseline {entry['digest'][:12]}…, "
                f"got {report.digest[:12]}…)")
        base_wall = entry.get("task_wall_s") or 0.0
        if base_wall > 0 and report.task_wall_s > base_wall * (1 + max_regression):
            problems.append(
                f"{exp_id}: wall-clock regression "
                f"({report.task_wall_s:.2f}s vs baseline {base_wall:.2f}s, "
                f"> {100 * max_regression:.0f}% over)")
    return problems


def check_p99(baseline_grid: Dict[str, float],
              grid: Dict[str, float]) -> List[str]:
    """Problems comparing a ``{cell: p99_us}`` grid to its pinned
    baseline (empty = pass): a baseline cell missing from ``grid``, or
    one that regressed by ``repro obs diff``'s rule
    (:func:`repro.obs.stream.percentile_regression`)."""
    problems: List[str] = []
    for cell, base in sorted(baseline_grid.items()):
        cur = grid.get(cell)
        if cur is None:
            problems.append(f"{cell}: p99 cell missing from run")
            continue
        rel = percentile_regression(base, cur)
        if rel is not None:
            problems.append(
                f"{cell}: p99 {cur:.3f}us vs baseline {base:.3f}us "
                f"(+{rel:.1%}, +{cur - base:.3f}us)")
    return problems
