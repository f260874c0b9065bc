"""CI-gated performance benchmark suite (schema v3).

Runs a pinned set of experiments (the fig07, fig09, fig10 and fig16
short grids, one SLO-battery cell and one 4-host cluster-scaling cell)
and records, per experiment:

* wall-clock seconds for the whole case grid,
* simulation events processed and events/second (from the event loop's
  hygiene counters),
* peak pending events across the grid,
* the combined result digest over every case (bit-stability check: a
  faster simulator must compute the *same* results).

Results are written to ``benchmarks/BENCH_perf.json``.  With ``--check``
the run is compared against the committed baseline instead: digests must
match exactly, and wall-clock may not regress more than ``--tolerance``
(default 25%) after scaling by the calibration score — a fixed
pure-Python microbenchmark that normalises for machine speed, so a slow
CI runner does not read as a regression and a fast one does not mask it.

Usage::

    PYTHONPATH=src python benchmarks/perf_suite.py            # write baseline
    PYTHONPATH=src python benchmarks/perf_suite.py --check    # CI gate
    PYTHONPATH=src python benchmarks/perf_suite.py --ref OLD.json
                                                   # record speedup vs OLD

Environment: ``REPRO_PERF_DURATION`` overrides the simulated seconds per
case (default 0.1); ``REPRO_PERF_PASSES`` the timing passes per grid
(default 2 — the best pass is recorded, since the runs are
deterministic and min is the least-noise estimator); ``REPRO_PERF_GRIDS``
a comma-separated subset of experiment ids to run (smoke jobs).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.export import result_to_dict   # noqa: E402
from repro.runner.digest import digest_of          # noqa: E402

#: The pinned grids: experiment id -> module path.  Short durations keep
#: the whole suite under a few minutes while still exercising every
#: scheduler and feature combination the canonical figures sweep, the
#: per-packet stochastic cost models (fig10), plus the SLO-governor and
#: multi-host cluster subsystems.
GRIDS = {
    "fig07": "repro.experiments.fig07_single_core_chain",
    "fig09": "repro.experiments.fig09_shared_chains",
    "fig10": "repro.experiments.fig10_variable_cost",
    "fig16": "repro.experiments.fig16_chain_length",
    "slo_battery": "repro.experiments.slo_battery",
    "cluster_scaling": "repro.experiments.cluster_scaling",
}

SCHEMA_VERSION = 3

DEFAULT_PATH = os.path.join(os.path.dirname(__file__), "BENCH_perf.json")


def calibrate(n: int = 200_000) -> float:
    """Machine-speed score: events/second through a bare EventLoop.

    A fixed-size periodic-tick workload through the real event loop —
    the same interpreter-bound work the simulator spends its time on, so
    the score moves with the machine the way the experiments do.
    """
    from repro.sim.engine import EventLoop

    loop = EventLoop()
    loop.call_every(10, lambda: None)
    t0 = time.perf_counter()
    loop.run_until(n * 10)
    elapsed = time.perf_counter() - t0
    return loop.pops / elapsed


def run_experiment(exp_id: str, duration_s: float, passes: int) -> dict:
    """Run one experiment's campaign grid serially.

    The grid is executed ``passes`` times and the *minimum* wall-clock is
    recorded — the runs are deterministic, so min is the least-noise
    estimate of the machine's true speed.  Timing covers only the case
    executions; digesting the results happens outside the clock.
    """
    mod = importlib.import_module(GRIDS[exp_id])
    cases = mod.campaign_cases(duration_s=duration_s)
    run_case = mod.run_case
    walls = []
    results = None
    for _ in range(passes):
        gc.collect()
        t0 = time.perf_counter()
        results = [run_case(**case.kwargs) for case in cases]
        walls.append(time.perf_counter() - t0)
    digests = {case.label: digest_of(result_to_dict(res))
               for case, res in zip(cases, results)}
    events = 0
    peak_pending = 0
    for res in results:
        stats = getattr(res, "loop_stats", None) or {}
        events += stats.get("pops", 0)
        peak_pending = max(peak_pending, stats.get("peak_pending", 0))
    wall = min(walls)
    return {
        "duration_s": duration_s,
        "cases": len(cases),
        "digest": digest_of(digests),
        "wall_s": round(wall, 4),
        "events": events,
        "events_per_sec": round(events / wall) if wall > 0 else 0,
        "peak_pending": peak_pending,
    }


def _selected_grids() -> list:
    raw = os.environ.get("REPRO_PERF_GRIDS", "").strip()
    if not raw:
        return list(GRIDS)
    selected = [g.strip() for g in raw.split(",") if g.strip()]
    unknown = [g for g in selected if g not in GRIDS]
    if unknown:
        raise SystemExit(f"REPRO_PERF_GRIDS: unknown grid id(s) "
                         f"{', '.join(unknown)}; known: {', '.join(GRIDS)}")
    return selected


def run_suite(duration_s: float, passes: int) -> dict:
    calibration = round(calibrate())
    print(f"[perf] calibration: {calibration:,} loop events/s")
    experiments = {}
    for exp_id in _selected_grids():
        rec = run_experiment(exp_id, duration_s, passes)
        experiments[exp_id] = rec
        print(f"[perf] {exp_id}: {rec['cases']} cases in "
              f"{rec['wall_s']:.2f}s — {rec['events_per_sec']:,} events/s, "
              f"peak pending {rec['peak_pending']}, "
              f"digest {rec['digest'][:12]}…")
    return {
        "version": SCHEMA_VERSION,
        "calibration": calibration,
        "experiments": experiments,
    }


def check(current: dict, baseline: dict, tolerance: float) -> list:
    """Compare a fresh run against the committed baseline.

    Returns a list of human-readable problems (empty = pass).  Digest
    mismatches always fail; wall-clock is compared after scaling the
    baseline by the ratio of calibration scores.
    """
    if baseline.get("version") != SCHEMA_VERSION:
        return [f"baseline schema version {baseline.get('version')!r} "
                f"is not {SCHEMA_VERSION} — rebaseline with: "
                f"python benchmarks/perf_suite.py"]
    problems = []
    scale = 1.0
    if current["calibration"] and baseline.get("calibration"):
        scale = baseline["calibration"] / current["calibration"]
    subset = bool(os.environ.get("REPRO_PERF_GRIDS", "").strip())
    for exp_id, base in baseline.get("experiments", {}).items():
        cur = current["experiments"].get(exp_id)
        if cur is None:
            # A REPRO_PERF_GRIDS smoke run legitimately checks a subset.
            if not subset:
                problems.append(f"{exp_id}: missing from current run")
            continue
        if cur["digest"] != base["digest"]:
            problems.append(
                f"{exp_id}: result digest drifted "
                f"({cur['digest'][:12]}… != {base['digest'][:12]}…) — "
                f"speed must not buy behaviour change")
        allowed = base["wall_s"] * scale * (1.0 + tolerance)
        if cur["wall_s"] > allowed:
            problems.append(
                f"{exp_id}: wall-clock {cur['wall_s']:.2f}s exceeds "
                f"{allowed:.2f}s (baseline {base['wall_s']:.2f}s × "
                f"calibration {scale:.2f} × {1 + tolerance:.2f})")
    return problems


def _load_ref(current: dict, path: str) -> None:
    """Record speedups against a prior v3 suite run."""
    with open(path) as fh:
        ref = json.load(fh)
    reference = {"experiments": {}}
    for exp_id, base in ref.get("experiments", {}).items():
        cur = current["experiments"].get(exp_id)
        if cur is None or "wall_s" not in base:
            continue
        if cur["digest"] != base["digest"]:
            print(f"[perf] WARNING {exp_id}: digest differs from "
                  f"reference — speedup not comparable")
            continue
        speedup = round(base["wall_s"] / cur["wall_s"], 3)
        reference["experiments"][exp_id] = {
            "wall_s": base["wall_s"], "speedup": speedup}
        print(f"[perf] {exp_id}: {speedup}x vs reference "
              f"({base['wall_s']:.2f}s -> {cur['wall_s']:.2f}s)")
    current["reference"] = reference


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_PATH,
                        help="baseline path (default benchmarks/"
                             "BENCH_perf.json)")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed baseline "
                             "instead of overwriting it")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed wall-clock regression fraction "
                             "with --check (default 0.25)")
    parser.add_argument("--ref", default=None, metavar="PATH",
                        help="a prior v3 suite run (e.g. from the "
                             "pre-optimisation commit) to record "
                             "speedups against in the written baseline")
    parser.add_argument("--snapshot", default=None, metavar="PATH",
                        help="also write this run's measurements to "
                             "PATH (useful with --check: the CI gate "
                             "and the uploaded artifact from one run)")
    args = parser.parse_args()

    duration = float(os.environ.get("REPRO_PERF_DURATION", "0.1"))
    passes = int(os.environ.get("REPRO_PERF_PASSES", "2"))
    current = run_suite(duration, passes)

    if args.snapshot:
        with open(args.snapshot, "w") as fh:
            json.dump(current, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"[perf] snapshot written to {args.snapshot}")

    if args.check:
        try:
            with open(args.out) as fh:
                baseline = json.load(fh)
        except OSError as exc:
            print(f"[perf] cannot load baseline {args.out}: {exc}")
            return 2
        problems = check(current, baseline, args.tolerance)
        for problem in problems:
            print(f"[perf] CHECK FAILED {problem}")
        if problems:
            return 1
        print(f"[perf] check passed against {args.out} "
              f"(tolerance {args.tolerance:.0%})")
        return 0

    if args.ref:
        _load_ref(current, args.ref)

    with open(args.out, "w") as fh:
        json.dump(current, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"[perf] baseline written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
