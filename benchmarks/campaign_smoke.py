"""CI smoke test for the campaign runner.

Runs a short-duration campaign three times — serially, with two
workers, and serially with the experiment ids reversed — and asserts the
per-experiment digests are bit-identical.  Pool workers are long-lived,
so the reversed run gives every task different predecessors in its
worker: equal digests show a task's result does not depend on what ran
before it.  Then writes a baseline (``BENCH_campaign.json``) and
exercises ``--check`` against it.  Exits non-zero on any digest
divergence, task failure, or check failure.

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
    print(f"[smoke] reversed campaign (1 worker): {ids[::-1]}")
    reversed_ = run_campaign(ids[::-1], workers=1, duration_s=duration,
                             task_timeout_s=300.0)

    failed = False
    for exp_id in ids:
        s = serial.experiments[exp_id]
        others = {"parallel": parallel.experiments[exp_id],
                  "reversed": reversed_.experiments[exp_id]}
        failures = s.failures + [f for r in others.values()
                                 for f in r.failures]
        if failures:
            print(f"[smoke] FAIL {exp_id}: task failures {failures}")
            failed = True
            continue
        drift = [f"{name} digest {r.digest[:12]}…"
                 for name, r in others.items() if r.digest != s.digest]
        if drift:
            print(f"[smoke] FAIL {exp_id}: {', '.join(drift)} "
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
