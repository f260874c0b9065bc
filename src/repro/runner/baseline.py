"""Campaign regression baselines.

The baseline file (``BENCH_campaign.json`` by convention) persists, per
experiment: the canonical result digest, the summed in-worker wall time,
the simulated seconds covered, the derived simulated-time throughput,
the p99 (µs) of every flow in the merged flow telemetry (``p99_us``, for
experiments that record it) and the ids of the paper-claims rows whose
cells the campaign ran (``claims``).  ``--check`` compares a fresh
campaign against it:

* **digest drift** — any changed digest fails the check outright: the
  simulator is deterministic, so a drifted digest means behaviour changed;
* **wall-clock regression** — an experiment whose summed worker wall time
  exceeds baseline by more than ``max_regression`` (default 15 %) fails.
  Summed *per-task* wall time is used (not campaign elapsed time) so the
  measure is comparable across different ``--workers`` values.  An entry
  without a wall time (the committed battery baselines: digests travel
  between machines, wall clocks do not) skips this check;
* **p99 regression** — a pinned flow missing from the run, or one whose
  p99 regressed by ``repro obs diff``'s rule (:func:`check_p99`); the
  p99s are digest-invisible telemetry, so the digest alone would miss it;
* **claims** — a recorded row whose cells the campaign no longer ran, or
  one that no longer holds (:mod:`repro.experiments.claims`).

Writing (the default, without ``--check``) merges into an existing file:
experiments not part of the current campaign keep their entries.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.obs.stream import percentile_regression
from repro.runner.campaign import CampaignResult, ExperimentReport

SCHEMA_VERSION = 1


def flow_p99s(report: ExperimentReport) -> Dict[str, float]:
    """``{flow_id: p99 µs}`` over the report's merged flow telemetry."""
    from repro.obs.latency import percentile_row

    flows = (report.telemetry.get("flow_latency") or {}).get("flows", {})
    return {flow_id: percentile_row(hist)["p99_us"]
            for flow_id, hist in sorted(flows.items())}


def ran_claims(report: ExperimentReport) -> Tuple[List[Any], Dict[Any, Any]]:
    """The claims-table rows of the report's experiment whose cells the
    campaign ran, and the ``{cell: result}`` map they read."""
    from repro.experiments.claims import campaign_results, claims_of

    rows = claims_of(report.id)
    if not rows:
        return [], {}
    results = campaign_results(
        report, {c for row in rows for c in row.cells.values()})
    return [row for row in rows
            if all(c in results for c in row.cells.values())], results


def baseline_entry(report: ExperimentReport,
                   record_wall: bool = True) -> Dict:
    entry: Dict[str, Any] = {
        "digest": report.digest,
        "sim_seconds": report.sim_seconds,
        "tasks": len(report.tasks),
    }
    if record_wall:
        entry["task_wall_s"] = round(report.task_wall_s, 6)
        entry["sim_time_throughput"] = (
            round(report.sim_time_throughput, 6)
            if report.sim_time_throughput is not None else None)
    p99s = flow_p99s(report)
    if p99s:
        entry["p99_us"] = p99s
    claims = [row.id for row in ran_claims(report)[0]]
    if claims:
        entry["claims"] = claims
    return entry


def load_baseline(path: Union[str, Path]) -> Dict:
    with open(path) as fh:
        data = json.load(fh)
    version = data.get("version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported baseline version {version!r} in {path} "
            f"(expected {SCHEMA_VERSION})")
    return data


def write_baseline(path: Union[str, Path], campaign: CampaignResult,
                   record_wall: bool = True) -> Path:
    """Merge the campaign's successful experiments into the baseline
    (without wall times when ``record_wall`` is false)."""
    path = Path(path)
    if path.exists():
        data = load_baseline(path)
    else:
        data = {"version": SCHEMA_VERSION, "experiments": {}}
    for exp_id, report in campaign.experiments.items():
        if report.ok:
            data["experiments"][exp_id] = baseline_entry(report, record_wall)
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
        if entry.get("p99_us"):
            problems += [f"{exp_id}: {problem}" for problem in
                         check_p99(entry["p99_us"], flow_p99s(report))]
        if entry.get("claims"):
            problems += _check_claims(exp_id, entry["claims"], report)
    return problems


def _check_claims(exp_id: str, recorded: List[str],
                  report: ExperimentReport) -> List[str]:
    """A recorded claims row the campaign no longer ran, or one that no
    longer holds."""
    from repro.experiments.claims import evaluate

    rows, results = ran_claims(report)
    ran = {row.id: row for row in rows}
    problems = [f"{exp_id}: claim {claim_id}: its cells are not in this "
                f"campaign (or the row left the claims table)"
                for claim_id in recorded if claim_id not in ran]
    verdicts = evaluate([ran[c] for c in recorded if c in ran], results)
    problems += [f"{exp_id}: claim {v.claim.id} no longer holds "
                 f"(measured {v.value:.6g}, needs {v.claim.relation} "
                 f"{v.claim.bound})"
                 for v in verdicts if not v.ok]
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
