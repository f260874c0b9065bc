"""Rewrite ``bench/digests.json``: every workload's result digests at seed 0.

    python3 bench/write_digests.py

Only a benchmark change may run this (see ``bench/README.md``): a
rebaseline means the simulator's behaviour changed on purpose.
"""

import json
import os
import sys

import run


def reference_digests():
    """``{workload: {label: digest}}`` computed by today's code."""
    from repro.runner import run_campaign
    from workloads import WORKLOADS, Workload, result_digest

    out = {}
    for name, workload in WORKLOADS.items():
        if isinstance(workload, Workload):
            out[name] = {label: result_digest(fn(**kwargs))
                         for label, fn, kwargs
                         in workload.calls(run.REFERENCE_SEED)}
        else:
            result = run_campaign(list(workload.ids),
                                  workers=workload.workers,
                                  duration_s=workload.duration_s,
                                  seed=run.REFERENCE_SEED)
            if not result.ok:
                sys.exit(f"{name}: campaign failed; nothing written")
            out[name] = {exp_id: report.digest
                         for exp_id, report in result.experiments.items()}
    return out


if __name__ == "__main__":
    run._import_repro()
    digests = reference_digests()
    with open(run.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(run.DIGESTS)}: "
          f"{sum(map(len, digests.values()))} digests")
