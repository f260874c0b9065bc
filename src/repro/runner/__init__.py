"""Parallel experiment campaign runner.

Fans independent scenario runs — whole experiments, and the
per-configuration cases *inside* sweep experiments — across worker
processes with deterministic per-task seeding, per-task timeouts with
retry-once semantics, and crash isolation.  Aggregation is ordered by
task enumeration, so a parallel campaign's digests and artifacts are
bit-identical to a serial one.  See ``docs/campaigns.md``.
"""

from repro.runner.baseline import (
    check_campaign,
    check_p99,
    load_baseline,
    write_baseline,
)
from repro.runner.campaign import (
    CampaignResult,
    ExperimentReport,
    run_campaign,
)
from repro.runner.digest import canonical_json, combine_digests, digest_of
from repro.runner.pool import TaskOutcome, run_tasks
from repro.runner.tasks import TaskSpec, derive_task_seed, enumerate_tasks

__all__ = [
    "CampaignResult",
    "ExperimentReport",
    "TaskOutcome",
    "TaskSpec",
    "canonical_json",
    "check_campaign",
    "check_p99",
    "combine_digests",
    "derive_task_seed",
    "digest_of",
    "enumerate_tasks",
    "load_baseline",
    "run_campaign",
    "run_tasks",
    "write_baseline",
]
