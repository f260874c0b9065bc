"""Tests for the parallel campaign runner (:mod:`repro.runner`)."""

from __future__ import annotations

import importlib
import json
import multiprocessing

import pytest

from repro.runner.baseline import (
    check_campaign,
    check_p99,
    load_baseline,
    write_baseline,
)
from repro.runner.campaign import experiment_registry, run_campaign
from repro.runner.digest import combine_digests, digest_of
from repro.runner.pool import run_tasks
from repro.runner.tasks import TaskSpec, derive_task_seed, enumerate_tasks

HELPERS = "tests.runner_helpers"

#: Small enough that a whole grid stays fast, large enough to schedule.
FAST = 0.02

#: Every experiment that fans out per case (``campaign_cases``).
SWEEPS = ("fig07", "fig09", "fig10", "fig11", "fig12", "fig16", "tab05",
          "slo_battery", "cluster_scaling", "chaos_recovery")

#: The pool must work under both; spawn also proves the worker entry point
#: is importable rather than inherited.
START_METHODS = ("fork", "spawn")


def assert_campaign_matches_serial_main(exp_id: str) -> None:
    """The campaign renders from results round-tripped through
    ``result_to_dict``/``result_from_dict`` plus reattached telemetry;
    its artifact must equal the module's serial ``main``."""
    module = importlib.import_module(experiment_registry()[exp_id])
    campaign = run_campaign([exp_id], workers=2, duration_s=FAST)
    assert campaign.experiments[exp_id].artifact == \
        module.main(duration_s=FAST)


def helper_task(fn, label="t", **kwargs) -> TaskSpec:
    return TaskSpec(experiment="helper", label=label, module=HELPERS,
                    fn=fn, kwargs=kwargs)


# ----------------------------------------------------------------------
# Task enumeration
# ----------------------------------------------------------------------
class TestEnumeration:
    def test_sweep_experiments_fan_out_per_case(self):
        tasks = enumerate_tasks(
            "fig11", "repro.experiments.fig11_chain_permutations",
            duration_s=FAST)
        assert len(tasks) == 6 * 4 * 2   # orders x schedulers x systems
        assert len({t.label for t in tasks}) == len(tasks)
        assert all(t.fn == "run_case" for t in tasks)
        assert all(t.kwargs["duration_s"] == FAST for t in tasks)

    def test_fig12_cases_keep_serial_seeds(self):
        tasks = enumerate_tasks(
            "fig12", "repro.experiments.fig12_workload_mix", duration_s=FAST)
        for task in tasks:
            assert task.kwargs["seed"] == task.kwargs["n_flows"]

    def test_non_sweep_experiment_is_one_main_task(self):
        tasks = enumerate_tasks(
            "fig13", "repro.experiments.fig13_isolation", duration_s=FAST)
        assert len(tasks) == 1
        assert tasks[0].fn == "main"
        assert tasks[0].label == "main"

    def test_default_durations_come_from_the_module(self):
        tasks = enumerate_tasks(
            "fig07", "repro.experiments.fig07_single_core_chain")
        assert all(t.kwargs["duration_s"] == 2.0 for t in tasks)

    def test_campaign_seed_zero_keeps_base_seeds(self):
        assert derive_task_seed(0, "fig07", "a", 7) == 7

    def test_campaign_seed_derives_stable_distinct_seeds(self):
        s1 = derive_task_seed(3, "fig07", "a", 0)
        s2 = derive_task_seed(3, "fig07", "b", 0)
        assert s1 == derive_task_seed(3, "fig07", "a", 0)
        assert s1 != s2
        assert s1 != 0


# ----------------------------------------------------------------------
# The pool: isolation, timeout, retry
# ----------------------------------------------------------------------
class TestPool:
    @pytest.fixture(autouse=True)
    def no_leaked_children(self):
        yield
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_results_come_back_in_task_order(self, start_method):
        specs = [helper_task("ok_text", label=f"t{i}", duration_s=float(i))
                 for i in range(5)]
        outcomes = run_tasks(specs, workers=3, start_method=start_method)
        assert [o.spec.label for o in outcomes] == [f"t{i}" for i in range(5)]
        assert [o.payload["value"] for o in outcomes] == \
            [f"artifact for {float(i)}" for i in range(5)]

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_raising_task_fails_alone(self, start_method):
        specs = [helper_task("ok_text", label="good"),
                 helper_task("boom", label="bad"),
                 helper_task("ok_text", label="alsogood")]
        outcomes = run_tasks(specs, workers=2, start_method=start_method)
        assert [o.status for o in outcomes] == ["ok", "error", "ok"]
        assert outcomes[1].attempts == 2          # retried once, then failed
        assert "deliberate task failure" in outcomes[1].error

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_crashing_worker_fails_its_task_not_the_campaign(
            self, start_method):
        specs = [helper_task("hard_crash", label="crash"),
                 helper_task("ok_text", label="survivor")]
        outcomes = run_tasks(specs, workers=2, start_method=start_method)
        assert outcomes[0].status == "crashed"
        assert outcomes[0].attempts == 2
        assert outcomes[1].ok

    def test_one_worker_slot_survives_a_crash(self):
        """The dead worker is replaced, so its slot keeps serving tasks."""
        specs = [helper_task("hard_crash", label="crash"),
                 helper_task("ok_text", label="after1"),
                 helper_task("ok_text", label="after2")]
        outcomes = run_tasks(specs, workers=1)
        assert outcomes[0].status == "crashed"
        assert outcomes[0].attempts == 2
        assert "exit code -9" in outcomes[0].error
        assert [o.status for o in outcomes[1:]] == ["ok", "ok"]

    def test_results_do_not_depend_on_task_history(self):
        """A worker runs many tasks, so each result must be a function of
        its own spec only: the same tasks in reverse order on one worker
        see different predecessors and must give identical payloads.
        fig10's per-packet cost draws make its results seed-sensitive, so
        leaked RNG state would show too."""
        registry = experiment_registry()
        specs = [spec for exp_id in ("tab05", "fig07", "fig10")
                 for spec in enumerate_tasks(exp_id, registry[exp_id],
                                             duration_s=FAST)]
        forward = run_tasks(specs, workers=1)
        backward = run_tasks(specs[::-1], workers=1)[::-1]
        assert all(o.ok for o in forward + backward)
        assert [digest_of(o.payload["value"]) for o in forward] == \
            [digest_of(o.payload["value"]) for o in backward]

    def test_timeout_terminates_and_retries_once(self):
        specs = [helper_task("sleepy", label="slow", sleep_s=30.0)]
        outcomes = run_tasks(specs, workers=1, timeout_s=0.3)
        assert outcomes[0].status == "timeout"
        assert outcomes[0].attempts == 2
        assert outcomes[0].statuses == ["timeout", "timeout"]

    def test_result_published_by_deadline_is_honoured(self, monkeypatch):
        """A payload sent before the deadline is a success even when the
        parent only reads it after the deadline, while the worker is still
        alive and busy: the task completed, only the read is late."""
        import time

        import repro.runner.pool as pool_mod
        from tests.runner_helpers import publish_then_hang

        monkeypatch.setattr(pool_mod, "serve", publish_then_hang)
        done = []

        def slow_on_done(outcome):
            # Hold the parent past the other task's deadline.
            if not done:
                time.sleep(1.0)
            done.append(outcome)

        specs = [helper_task("ok_text", label="first"),
                 helper_task("ok_text", label="slow-exit")]
        outcomes = run_tasks(specs, workers=2, timeout_s=0.5,
                             on_done=slow_on_done)
        assert len(done) == 2
        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert [o.attempts for o in outcomes] == [1, 1]
        assert outcomes[1].payload["value"] == "artifact for 0.0"

    def test_workers_are_reaped_when_run_tasks_raises(self):
        def fail(outcome):
            raise RuntimeError("on_done failed")

        specs = [helper_task("ok_text", label=f"t{i}") for i in range(4)]
        with pytest.raises(RuntimeError, match="on_done failed"):
            run_tasks(specs, workers=2, on_done=fail)

    def test_flaky_task_recovers_on_retry(self, tmp_path):
        marker = tmp_path / "marker"
        specs = [helper_task("flaky", label="flaky",
                             marker_path=str(marker))]
        outcomes = run_tasks(specs, workers=1)
        assert outcomes[0].ok
        assert outcomes[0].attempts == 2
        assert outcomes[0].statuses == ["error", "ok"]
        assert outcomes[0].payload["value"] == "recovered on retry"

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_tasks([], workers=0)
        with pytest.raises(ValueError):
            run_tasks([], workers=1, timeout_s=0)


# ----------------------------------------------------------------------
# Campaign aggregation and determinism
# ----------------------------------------------------------------------
class TestCampaign:
    def test_parallel_digests_equal_serial(self):
        serial = run_campaign(["tab05"], workers=1, duration_s=FAST)
        parallel = run_campaign(["tab05"], workers=4, duration_s=FAST)
        assert serial.experiments["tab05"].digest == \
            parallel.experiments["tab05"].digest
        assert serial.experiments["tab05"].artifact == \
            parallel.experiments["tab05"].artifact

    def test_campaign_artifact_matches_serial_main(self):
        assert_campaign_matches_serial_main("tab05")

    @pytest.mark.parametrize("exp_id", [s for s in SWEEPS if s != "tab05"])
    def test_sweep_campaign_artifact_matches_serial_main(self, exp_id):
        assert_campaign_matches_serial_main(exp_id)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_campaign(["nope"], workers=1)
        with pytest.raises(ValueError, match="duplicate"):
            run_campaign(["tab05", "tab05"], workers=1)

    def test_report_accounting(self):
        campaign = run_campaign(["tab05"], workers=2, duration_s=FAST)
        report = campaign.experiments["tab05"]
        assert report.ok and campaign.ok
        assert len(report.tasks) == 2
        assert report.sim_seconds == pytest.approx(2 * FAST)
        assert report.task_wall_s > 0
        assert report.sim_time_throughput > 0
        assert report.failures == []

    def test_telemetry_merge_is_worker_count_invariant(self):
        """fig09's cases carry latency telemetry; the merged histograms
        (float totals included) must be byte-identical for any worker
        count, like the digest."""
        import json

        serial = run_campaign(["fig09"], workers=1, duration_s=FAST)
        parallel = run_campaign(["fig09"], workers=2, duration_s=FAST)
        ts = serial.experiments["fig09"].telemetry
        tp = parallel.experiments["fig09"].telemetry
        assert ts and "flow_latency" in ts
        assert json.dumps(ts, sort_keys=True) == \
            json.dumps(tp, sort_keys=True)
        merged = ts["flow_latency"]
        # Both cases saw both flows; merged counts are their sums.
        assert set(merged["flows"]) == {"flow1", "flow2"}
        assert serial.experiments["fig09"].digest == \
            parallel.experiments["fig09"].digest

    def test_telemetry_absent_without_tracked_cases(self):
        campaign = run_campaign(["tab05"], workers=1, duration_s=FAST)
        assert campaign.experiments["tab05"].telemetry == {}


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
class TestDigest:
    def test_digest_sensitive_to_values(self):
        assert digest_of({"a": 1.0}) != digest_of({"a": 1.0000001})

    def test_combine_is_order_sensitive(self):
        assert combine_digests(["a", "b"]) != combine_digests(["b", "a"])


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------
class TestBaseline:
    def _campaign(self):
        return run_campaign(["tab05"], workers=2, duration_s=FAST)

    def test_write_then_check_passes(self, tmp_path):
        campaign = self._campaign()
        path = write_baseline(tmp_path / "BENCH_campaign.json", campaign)
        baseline = load_baseline(path)
        assert check_campaign(baseline, campaign) == []
        entry = baseline["experiments"]["tab05"]
        assert entry["digest"] == campaign.experiments["tab05"].digest
        assert entry["tasks"] == 2

    def test_digest_drift_fails_check(self, tmp_path):
        campaign = self._campaign()
        path = write_baseline(tmp_path / "b.json", campaign)
        data = json.loads(path.read_text())
        data["experiments"]["tab05"]["digest"] = "0" * 64
        path.write_text(json.dumps(data))
        problems = check_campaign(load_baseline(path), campaign)
        assert len(problems) == 1
        assert "digest drift" in problems[0]

    def test_wall_clock_regression_fails_check(self, tmp_path):
        campaign = self._campaign()
        path = write_baseline(tmp_path / "b.json", campaign)
        data = json.loads(path.read_text())
        data["experiments"]["tab05"]["task_wall_s"] = 1e-6
        path.write_text(json.dumps(data))
        problems = check_campaign(load_baseline(path), campaign,
                                  max_regression=0.15)
        assert len(problems) == 1
        assert "regression" in problems[0]

    def test_missing_entry_fails_check(self):
        campaign = self._campaign()
        problems = check_campaign(
            {"version": 1, "experiments": {}}, campaign)
        assert len(problems) == 1
        assert "no baseline entry" in problems[0]

    def test_merge_keeps_other_experiments(self, tmp_path):
        campaign = self._campaign()
        path = tmp_path / "b.json"
        path.write_text(json.dumps({
            "version": 1,
            "experiments": {"fig99": {"digest": "x", "task_wall_s": 1.0,
                                      "sim_seconds": 1.0,
                                      "sim_time_throughput": 1.0,
                                      "tasks": 1}},
        }))
        write_baseline(path, campaign)
        data = load_baseline(path)
        assert set(data["experiments"]) == {"fig99", "tab05"}

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"version": 99, "experiments": {}}))
        with pytest.raises(ValueError, match="version"):
            load_baseline(path)

    @pytest.mark.parametrize("base,cur,fails", [
        (100.0, 110.0, False),   # exactly +10%: not more than 10%
        (100.0, 110.5, True),    # > 10% and >= 1 us
        (5.0, 5.9, False),       # +18% but under the 1 us floor
        (5.0, 6.0, True),        # +20% and exactly 1 us
        (100.0, 50.0, False),    # improvements never fail
        (0.0, 0.5, False),       # zero baseline: still needs 1 us
        (0.0, 1.0, True),        # zero baseline, 1 us growth
    ])
    def test_p99_rule(self, base, cur, fails):
        problems = check_p99({"cell": base}, {"cell": cur})
        assert bool(problems) is fails
        if fails:
            assert problems[0].startswith(
                f"cell: p99 {cur:.3f}us vs baseline {base:.3f}us")

    def test_p99_missing_cell_fails(self):
        problems = check_p99({"a": 1.0, "b": 2.0}, {"b": 2.0, "c": 9.0})
        assert problems == ["a: p99 cell missing from run"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCampaignCLI:
    def test_campaign_roundtrip_with_check(self, tmp_path, capsys):
        from repro.cli import main

        baseline = tmp_path / "BENCH_campaign.json"
        assert main(["campaign", "tab05", "--workers", "2",
                     "--duration", str(FAST), "--quiet",
                     "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "campaign:" in out and "tab05" in out
        assert baseline.exists()

        assert main(["campaign", "tab05", "--workers", "1",
                     "--duration", str(FAST), "--quiet",
                     "--baseline", str(baseline), "--check"]) == 0
        assert "check passed" in capsys.readouterr().out

    def test_check_detects_tampered_baseline(self, tmp_path, capsys):
        from repro.cli import main

        baseline = tmp_path / "b.json"
        assert main(["campaign", "tab05", "--workers", "1",
                     "--duration", str(FAST), "--quiet",
                     "--baseline", str(baseline)]) == 0
        data = json.loads(baseline.read_text())
        data["experiments"]["tab05"]["digest"] = "f" * 64
        baseline.write_text(json.dumps(data))
        assert main(["campaign", "tab05", "--workers", "1",
                     "--duration", str(FAST), "--quiet",
                     "--baseline", str(baseline), "--check"]) == 1
        assert "digest drift" in capsys.readouterr().err

    def test_artifacts_dir(self, tmp_path, capsys):
        from repro.cli import main

        artifacts = tmp_path / "artifacts"
        assert main(["campaign", "tab05", "--workers", "1",
                     "--duration", str(FAST), "--quiet",
                     "--artifacts", str(artifacts)]) == 0
        capsys.readouterr()
        assert (artifacts / "tab05.txt").read_text().startswith("\n=== Table 5")

    def test_usage_errors(self, capsys):
        from repro.cli import main

        assert main(["campaign", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err
        assert main(["campaign", "tab05", "--check"]) == 2
        assert "--check requires --baseline" in capsys.readouterr().err
