"""Tests of the benchmark itself: ``python -m pytest bench -q``.

They run 1-2-case, 0.01 sim-s variants of the workloads through the
Python API, so the whole file takes seconds.
"""

import json
import os
import re
import tempfile

import pytest

import run

run._import_repro()

import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import SpanTracer  # noqa: E402
from workloads import WORKLOADS, CampaignWorkload, Workload  # noqa: E402

SPEC_PATH = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
IN_PROCESS = [n for n, w in WORKLOADS.items() if isinstance(w, Workload)]


def small_calls(name, n=2, seed=0):
    """The first ``n`` cases of a workload, shortened to 0.01 sim-s."""
    return [(label, fn, dict(kwargs, duration_s=0.01))
            for label, fn, kwargs in WORKLOADS[name].calls(seed)[:n]]


@pytest.fixture(scope="module")
def spec():
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def test_tracer_restores_every_patched_attribute():
    with SpanTracer() as tr:
        patched = tr.patched()
        assert len(patched) > 20
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"
    assert tr.patched() == []


@pytest.mark.parametrize("name", IN_PROCESS)
def test_traced_digests_equal_untraced(name):
    calls = small_calls(name)
    checker = run.Checker(reference=None)
    run.time_cases(calls, checker, rounds=1)
    run.traced_pass(calls, checker)
    assert checker.attempted == 2 * len(calls)
    assert checker.failed == 0


@pytest.mark.parametrize("name", IN_PROCESS)
def test_span_self_times_sum_to_traced_wall(name):
    tr, wall_ns, _ = run.traced_pass(small_calls(name), run.Checker(None))
    total_self = sum(self_ns for _calls, _incl, self_ns
                     in tr.edges().values())
    assert total_self == tr.top_level_ns()
    assert abs(wall_ns - total_self) <= 0.02 * wall_ns
    shares = tr.layer_metrics(wall_ns)
    assert sum(shares[f"{layer}.self_share"]
               for layer in tracer.LAYERS) == pytest.approx(1.0, abs=0.02)


def test_deterministic_counts_repeat_across_traced_runs():
    calls = small_calls("cluster_flash")
    first, _, _ = run.traced_pass(calls, run.Checker(None))
    second, _, _ = run.traced_pass(calls, run.Checker(None))
    assert run._determinism_key(first) == run._determinism_key(second)
    assert first.counters["events"] > 0
    assert first.counters["cases"] == len(calls)


def test_layers_separate_on_small_variants():
    def traced_metrics(name):
        tr, wall_ns, _ = run.traced_pass(small_calls(name),
                                         run.Checker(None))
        return tr.layer_metrics(wall_ns)

    chain = traced_metrics("chain_sweep")
    assert chain["nfs.calls"] == 0 and chain["obs.calls"] == 0
    assert chain["cluster.calls"] == 0 and chain["sched.calls"] > 0
    assert traced_metrics("variable_cost")["nfs.calls"] > 0
    assert traced_metrics("cluster_flash")["cluster.calls"] > 0


def test_tampered_reference_digest_counts_as_failed():
    with open(run.DIGESTS) as fh:
        reference = json.load(fh)["chain_sweep"]
    calls = WORKLOADS["chain_sweep"].calls(run.REFERENCE_SEED)[:1]
    label = calls[0][0]

    good = run.Checker(reference)
    run.time_cases(calls, good, rounds=1)
    assert (good.attempted, good.failed) == (1, 0)

    tampered = run.Checker(dict(reference, **{label: "0" * 64}))
    run.time_cases(calls, tampered, rounds=1)
    assert (tampered.attempted, tampered.failed) == (1, 1)


def test_repeat_disagreement_counts_as_failed():
    checker = run.Checker(reference=None)
    assert checker.check("case", "a")
    assert not checker.check("case", "b")
    assert (checker.attempted, checker.failed) == (2, 1)


TINY = {
    "chain_sweep": Workload("chain_sweep", workloads.CHAIN_SWEEP.module,
                            ({"length": 2, "placement": "SC",
                              "features": "NFVnice", "duration_s": 0.01},)),
    "campaign_fanout": CampaignWorkload("campaign_fanout", ("tab05",),
                                        workers=2, duration_s=0.01),
}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_benchmark_metric_is_printed_with_its_unit(
        name, trace, spec, monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(WORKLOADS, name, TINY[name])
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    monkeypatch.setattr(run, "_reference", lambda workload, seed: None)
    monkeypatch.setattr(tempfile, "tempdir", None)
    assert run.run_one(name, seed=0, seconds=0, trace=trace) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    # "[bench] <workload> <metric> = <value> <unit>"
    printed = {line.split(" = ")[0].split()[-1]: line.split()[-1]
               for line in lines[:-1] if " = " in line}
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"] == printed[m["name"]]
        assert isinstance(entry["value"], (int, float))
    if trace and name == "campaign_fanout":
        assert result["metrics"]["runner.tasks"]["value"] == 2


def test_benchmark_json_matches_the_code(spec):
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert "setup_s" in names
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
