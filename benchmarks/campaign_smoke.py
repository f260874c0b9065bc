"""CI smoke test for the campaign runner.

Runs a short-duration campaign twice — serially and with two workers —
and asserts the per-experiment digests are bit-identical; then writes a
baseline (``BENCH_campaign.json``) and exercises ``--check`` against it.
Exits non-zero on any digest divergence, task failure, or check failure.

Usage::

    PYTHONPATH=src python benchmarks/campaign_smoke.py [baseline_path]

Environment: ``REPRO_SMOKE_DURATION`` (simulated seconds per case,
default 0.05), ``REPRO_SMOKE_EXPERIMENTS`` (comma-separated ids, default
a mix of sweep and whole-``main`` experiments).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.runner.baseline import (     # noqa: E402
    check_campaign, load_baseline, write_baseline,
)
from repro.runner.campaign import run_campaign  # noqa: E402

DEFAULT_EXPERIMENTS = "fig07,fig09,fig12,tab05"


def main() -> int:
    duration = float(os.environ.get("REPRO_SMOKE_DURATION", "0.05"))
    ids = os.environ.get(
        "REPRO_SMOKE_EXPERIMENTS", DEFAULT_EXPERIMENTS).split(",")
    baseline_path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_campaign.json"

    print(f"[smoke] serial campaign: {ids} at {duration}s per case")
    serial = run_campaign(ids, workers=1, duration_s=duration,
                          task_timeout_s=300.0)
    print(f"[smoke] parallel campaign (2 workers)")
    parallel = run_campaign(ids, workers=2, duration_s=duration,
                            task_timeout_s=300.0)

    failed = False
    for exp_id in ids:
        s, p = serial.experiments[exp_id], parallel.experiments[exp_id]
        if not (s.ok and p.ok):
            print(f"[smoke] FAIL {exp_id}: task failures "
                  f"{s.failures + p.failures}")
            failed = True
            continue
        if s.digest != p.digest:
            print(f"[smoke] FAIL {exp_id}: parallel digest {p.digest[:12]}… "
                  f"!= serial {s.digest[:12]}…")
            failed = True
        else:
            print(f"[smoke] ok {exp_id}: digest {s.digest[:12]}… "
                  f"({len(s.tasks)} tasks, {s.task_wall_s:.2f}s worker "
                  f"time)")
    if failed:
        return 1

    write_baseline(baseline_path, parallel)
    print(f"[smoke] baseline written to {baseline_path}")
    problems = check_campaign(load_baseline(baseline_path), serial,
                              max_regression=0.5)
    for problem in problems:
        print(f"[smoke] CHECK FAILED {problem}")
    if problems:
        return 1
    print("[smoke] --check workflow passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
