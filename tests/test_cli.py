"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


def test_every_experiment_module_importable_with_main():
    import importlib

    for name, (module_path, _desc) in EXPERIMENTS.items():
        module = importlib.import_module(module_path)
        assert callable(getattr(module, "main")), name


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_run_unknown_experiment(capsys):
    assert main(["run", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_campaign_duplicate_ids_rejected(capsys):
    assert main(["campaign", "tab05", "tab05"]) == 2
    assert "duplicate experiment id(s): tab05" in capsys.readouterr().err


def test_run_experiment(capsys):
    assert main(["run", "tab05", "--duration", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "Table 5" in out


def test_topology_command(tmp_path, capsys):
    spec = {
        "nfs": [{"name": "fw", "cycles": 300, "core": 0}],
        "chains": [{"name": "c", "nfs": ["fw"]}],
        "flows": [{"id": "f", "chain": "c", "rate_pps": 1e6}],
    }
    path = tmp_path / "t.json"
    path.write_text(json.dumps(spec))
    assert main(["topology", str(path), "--duration", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "tput Mpps" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_with_observability_artifacts(tmp_path, capsys):
    """--trace/--metrics-out produce valid artifacts plus the hop table."""
    from repro.obs.session import current_session

    trace = tmp_path / "trace.json"
    prom = tmp_path / "metrics.prom"
    assert main(["run", "tab05", "--duration", "0.2",
                 "--trace", str(trace),
                 "--metrics-out", str(prom),
                 "--span-sample-rate", "16"]) == 0
    assert current_session() is None  # deactivated even on success
    out = capsys.readouterr().out
    assert "per-hop latency breakdown" in out
    assert "[obs] wrote" in out

    with open(trace) as fh:
        data = json.load(fh)
    events = data["traceEvents"]
    assert events
    # At least one scheduler slice per worker core and one counter sample
    # per NF ring track (tab05 pins one NF per core).
    slice_tids = {e["tid"] for e in events if e["ph"] == "X"}
    assert {0, 1, 2} <= slice_tids
    counter_names = {e["name"] for e in events if e["ph"] == "C"}
    assert {"ring nf1.rx", "ring nf2.rx", "ring nf3.rx"} <= counter_names

    text = prom.read_text()
    assert "# TYPE repro_chain_completed_packets gauge" in text
    assert "scenario=" in text


def test_run_rejects_nonpositive_span_sample_rate(capsys):
    assert main(["run", "tab05", "--span-sample-rate", "0"]) == 2
    assert "--span-sample-rate" in capsys.readouterr().err


def test_run_without_observability_attaches_nothing(capsys):
    from repro.obs.session import current_session

    assert main(["run", "tab05", "--duration", "0.1"]) == 0
    assert current_session() is None
    out = capsys.readouterr().out
    assert "[obs]" not in out


def test_run_rejects_nonpositive_stream_interval(capsys):
    assert main(["run", "tab05", "--stream-interval-ms", "0"]) == 2
    assert "--stream-interval-ms" in capsys.readouterr().err
    assert main(["run", "tab05", "--stream-interval-ms", "-5"]) == 2
    assert "--stream-interval-ms" in capsys.readouterr().err


@pytest.mark.parametrize("duration", ["0", "-1"])
def test_run_rejects_nonpositive_duration(capsys, duration):
    assert main(["run", "fig07", "--duration", duration]) == 2
    err = capsys.readouterr().err
    assert "--duration must be a positive number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("duration", ["0", "-0.5"])
def test_campaign_rejects_nonpositive_duration(capsys, duration):
    assert main(["campaign", "fig07", "--duration", duration]) == 2
    err = capsys.readouterr().err
    assert "--duration must be a positive number" in err


@pytest.mark.parametrize("duration", ["0", "-1", "nan"])
def test_topology_rejects_nonpositive_duration(tmp_path, capsys, duration):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({
        "nfs": [{"name": "fw", "cycles": 300, "core": 0}],
        "chains": [{"name": "c", "nfs": ["fw"]}],
        "flows": [{"id": "f", "chain": "c", "rate_pps": 1e6}],
    }))
    assert main(["topology", str(path), "--duration", duration]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "--duration must be a positive number" in captured.err


def test_run_rejects_empty_stream_out(capsys):
    assert main(["run", "tab05", "--stream-out", "  "]) == 2
    assert "--stream-out" in capsys.readouterr().err


def test_run_streams_snapshots(tmp_path, capsys):
    """--stream-out writes JSONL snapshots with latency + causality."""
    path = tmp_path / "snaps.jsonl"
    assert main(["run", "tab05", "--duration", "0.2",
                 "--stream-out", str(path),
                 "--stream-interval-ms", "50"]) == 0
    out = capsys.readouterr().out
    assert "[obs] streamed" in out
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(lines) >= 4  # 3 periodic at 50 ms + final
    for snap in lines:
        assert snap["scenario"]
        assert "latency" in snap and "causality" in snap
    assert lines[-1]["latency"]["flows"]


def test_obs_diff_identical_files_pass(tmp_path, capsys):
    entry = {"case": {"latency": {"flows": {"f": {
        "count": 10, "p50_us": 5.0, "p95_us": 20.0,
        "p99_us": 40.0, "p99_9_us": 80.0}}}}}
    a = tmp_path / "a.json"
    a.write_text(json.dumps(entry))
    assert main(["obs", "diff", str(a), str(a)]) == 0
    assert "0 percentile regression(s)" in capsys.readouterr().out


def test_obs_diff_flags_regression_with_exit_1(tmp_path, capsys):
    def entry(p99):
        return {"case": {"latency": {"flows": {"f": {
            "count": 10, "p50_us": 5.0, "p95_us": 20.0,
            "p99_us": p99, "p99_9_us": 2 * p99}}}}}

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(entry(40.0)))
    b.write_text(json.dumps(entry(60.0)))
    assert main(["obs", "diff", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    # A loose enough threshold accepts the same pair.
    assert main(["obs", "diff", str(a), str(b),
                 "--max-regression", "0.6"]) == 0


def test_obs_diff_bad_inputs(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text("{}")
    assert main(["obs", "diff", str(tmp_path / "nope.json"),
                 str(good)]) == 2
    assert "cannot load telemetry" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["obs", "diff", str(good), str(bad)]) == 2
    assert "cannot load telemetry" in capsys.readouterr().err
    assert main(["obs", "diff", str(good), str(good),
                 "--max-regression", "-1"]) == 2
    assert "--max-regression" in capsys.readouterr().err
