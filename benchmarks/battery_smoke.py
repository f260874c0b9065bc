"""CI gate for the three scenario batteries.

Runs ``chaos_recovery``, ``slo_battery`` and ``cluster_scaling`` on two
workers, each at its horizon in :data:`HORIZONS`, and checks each
campaign against the committed ``benchmarks/BENCH_batteries.json`` with
:func:`repro.runner.baseline.check_campaign`, the check behind
``repro campaign --baseline B --check``: the result digest, the p99 of
every flow with telemetry (``repro obs diff``'s 10% / 1 µs rule) and
every recorded paper-claims row (:mod:`repro.experiments.claims`).  The
entries record no wall time (digests travel between machines, wall
clocks do not), so no wall check runs::

    PYTHONPATH=src python benchmarks/battery_smoke.py           # check
    PYTHONPATH=src python benchmarks/battery_smoke.py --write   # rewrite

Exits 1 on any problem.  ``--write`` rewrites each battery's entry
before checking it, so only a failing claims row fails it.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments.claims import CLUSTER_S, SLO_S  # noqa: E402
from repro.runner.baseline import (                     # noqa: E402
    check_campaign, load_baseline, write_baseline,
)
from repro.runner.campaign import run_campaign          # noqa: E402

BASELINE = os.path.join(os.path.dirname(__file__), "BENCH_batteries.json")

#: Battery -> simulated seconds per case.  The slo and cluster horizons
#: are the ones their claims-table cells run at.
HORIZONS = {
    "chaos_recovery": 0.1,
    "slo_battery": SLO_S,
    "cluster_scaling": CLUSTER_S,
}


def main() -> int:
    write = "--write" in sys.argv[1:]
    failed = False
    for exp_id, duration in HORIZONS.items():
        campaign = run_campaign([exp_id], workers=2, duration_s=duration,
                                task_timeout_s=300.0)
        if write:
            write_baseline(BASELINE, campaign, record_wall=False)
        try:
            baseline = load_baseline(BASELINE)
        except (OSError, ValueError) as exc:
            print(f"[battery-smoke] cannot load baseline: {exc}")
            return 1
        report = campaign.experiments[exp_id]
        entry = baseline["experiments"].get(exp_id, {})
        print(f"[battery-smoke] {exp_id} at {duration}s: "
              f"{len(report.tasks)} cases, digest "
              f"{(report.digest or '-')[:12]}…, "
              f"{len(entry.get('p99_us', {}))} p99 pins, "
              f"claims {entry.get('claims', [])}")
        problems = check_campaign(baseline, campaign)
        for problem in problems:
            print(f"[battery-smoke] CHECK FAILED {problem}")
        failed = failed or bool(problems)
    if failed:
        print("[battery-smoke] rewrite with --write if the change is "
              "intentional")
        return 1
    print(f"[battery-smoke] check passed against {BASELINE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
