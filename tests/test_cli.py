"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import EXPERIMENTS, build_parser, main

from tests.test_faults import HOSTILE_PLAN_IDS, HOSTILE_PLANS


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
    from repro.experiments.common import current_run_context

    trace = tmp_path / "trace.json"
    prom = tmp_path / "metrics.prom"
    assert main(["run", "tab05", "--duration", "0.2",
                 "--trace", str(trace),
                 "--metrics-out", str(prom)]) == 0
    assert current_run_context() is None  # exited even on success
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


def test_run_without_observability_attaches_nothing(capsys):
    from repro.experiments.common import current_run_context

    assert main(["run", "tab05", "--duration", "0.1"]) == 0
    assert current_run_context() is None
    out = capsys.readouterr().out
    assert "[obs]" not in out


def test_run_rejects_nonpositive_stream_interval(capsys):
    assert main(["run", "tab05", "--stream-interval-ms", "0"]) == 2
    assert "--stream-interval-ms" in capsys.readouterr().err
    assert main(["run", "tab05", "--stream-interval-ms", "-5"]) == 2
    assert "--stream-interval-ms" in capsys.readouterr().err
    for value in ("nan", "inf"):
        assert main(["run", "tab05", "--stream-interval-ms", value]) == 2
        err = capsys.readouterr().err
        assert "--stream-interval-ms" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("duration", ["0", "-1", "inf", "nan"])
def test_run_rejects_nonpositive_duration(capsys, duration):
    assert main(["run", "fig07", "--duration", duration]) == 2
    err = capsys.readouterr().err
    assert "--duration must be a positive number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("duration", ["0", "-0.5", "inf", "nan"])
def test_campaign_rejects_nonpositive_duration(capsys, duration):
    assert main(["campaign", "fig07", "--duration", duration]) == 2
    err = capsys.readouterr().err
    assert "--duration must be a positive number" in err


@pytest.mark.parametrize("duration", ["0", "-1", "nan", "inf"])
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


def _flow_json(flow_fields: str) -> str:
    """A one-NF, one-chain topology whose single flow has ``flow_fields``."""
    return ('{"nfs": [{"name": "a", "cycles": 100}], '
            '"chains": [{"name": "c", "nfs": ["a"]}], '
            '"flows": [{"id": "f", "chain": "c", ' + flow_fields + '}]}')


def _nf_json(nf_fields: str) -> str:
    """A one-NF, one-chain, one-flow topology whose NF has ``nf_fields``."""
    return ('{"nfs": [{"name": "a", "cycles": 100, ' + nf_fields + '}], '
            '"chains": [{"name": "c", "nfs": ["a"]}], '
            '"flows": [{"id": "f", "chain": "c", "rate_pps": 1e5}]}')


@pytest.mark.parametrize("text,message", [
    ('{"hosts": 2}', "topology needs at least one NF"),
    ("{nope", "Expecting property name"),
    ('{"nfs": [{"name": "a", "cost": -5}]}',
     "nfs[0].cost: expected a JSON object, got -5"),
    ('{"nfs": [5]}', "nfs[0]: expected a JSON object, got 5"),
    ('{"nfs": [{"name": "a", "cycles": 100}], "chains": [3]}',
     "chains[0]: expected a JSON object, got 3"),
    ('{"nfs": [{"name": "a", "cycles": 100}], "flows": ["f"]}',
     "flows[0]: expected a JSON object, got 'f'"),
    ("[]", "topology spec must be a mapping"),
    (_flow_json('"rate_pps": 1e999'), "rate_pps must be finite"),
    (_flow_json('"rate_pps": NaN'), "rate_pps must be finite"),
    (_flow_json('"line_rate_fraction": 1e999'), "rate_pps must be finite"),
    (_flow_json('"rate_pps": 1e6, "start_s": 1e999'),
     "flows[0].start_s: expected a finite number, got inf"),
    (_flow_json('"rate_pps": 1e6, "stop_s": NaN'),
     "flows[0].stop_s: expected a finite number, got nan"),
    (_nf_json('"busy_loop": "false"'),
     "nfs[0].busy_loop must be true or false, got 'false'"),
    (_nf_json('"core": -1'),
     "nfs[0].core must be a non-negative integer, got -1"),
    (_nf_json('"core": "x"'),
     "nfs[0].core must be a non-negative integer, got 'x'"),
    (_nf_json('"priority": "NaN"'),
     "nfs[0].priority must be a finite non-negative number, got 'NaN'"),
    (_nf_json('"priority": -3'),
     "nfs[0].priority must be a finite non-negative number, got -3"),
    (_flow_json('"rate_pps": 1e6, "protocol": "sctp"'),
     "flows[0].protocol must be 'udp' or 'tcp', got 'sctp'"),
    ('{"nfs": [{"name": "a", "cycles": "abc"}]}',
     "nfs[0].cycles: expected a finite number, got 'abc'"),
    ('{"nfs": [{"name": "a", "cycles": true}]}',
     "nfs[0].cycles: expected a finite number, got True"),
    (_flow_json('"rate_pps": "1e5"'),
     "flows[0].rate_pps: expected a JSON number, got '1e5'"),
    (_flow_json('"line_rate_fraction": "0.5"'),
     "flows[0].line_rate_fraction: expected a JSON number, got '0.5'"),
    (_flow_json('"rate_pps": 1e6, "pkt_size": "x"'),
     "flows[0].pkt_size: expected a finite number, got 'x'"),
    (_flow_json('"rate_pps": 1e6, "start_s": "soon"'),
     "flows[0].start_s: expected a finite number, got 'soon'"),
    (_flow_json('"rate_pps": 1e6, "stop_s": false'),
     "flows[0].stop_s: expected a finite number, got False"),
    ('{"nfs": [{"name": "a", "cycles": 100}, {"name": "b", "cycles": 100}],'
     ' "chains": [{"name": "c", "nfs": "ab"}]}',
     "chains[0].nfs: expected a non-empty list of NF names, got 'ab'"),
], ids=["no-nfs", "bad-json", "scalar-cost", "scalar-nf", "scalar-chain",
        "scalar-flow", "not-a-mapping", "inf-rate", "nan-rate",
        "inf-line-rate", "inf-start", "nan-stop", "string-busy-loop",
        "negative-core", "string-core", "string-nan-priority",
        "negative-priority", "sctp-protocol", "string-cycles",
        "bool-cycles", "string-rate", "string-line-rate", "string-pkt-size",
        "string-start", "bool-stop", "string-chain-nfs"])
def test_topology_rejects_hostile_spec(tmp_path, capsys, text, message):
    path = tmp_path / "t.json"
    path.write_text(text)
    assert main(["topology", str(path), "--duration", "0.01"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"topology: {path}: ")
    assert message in captured.err


def test_topology_missing_file_exits_2(tmp_path, capsys):
    path = tmp_path / "missing.json"
    assert main(["topology", str(path)]) == 2
    assert f"topology: {path}: " in capsys.readouterr().err


def test_check_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "x.json"
    assert main(["check", "src", "-o", str(target)]) == 2
    assert "check: cannot write" in capsys.readouterr().err
    assert not target.exists()


@pytest.mark.parametrize("option", [
    ["--cache", "c.json"], ["--no-cache"], ["--jobs", "2"],
    ["--baseline", "b.json"], ["--update-baseline"],
])
def test_check_removed_options_are_unknown(capsys, option):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--deep", "src"] + option)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_run_rejects_empty_stream_out(capsys):
    assert main(["run", "tab05", "--stream-out", "  "]) == 2
    assert "--stream-out" in capsys.readouterr().err


def test_run_rejects_sanitize_tick_without_sanitize(capsys):
    assert main(["run", "tab05", "--duration", "0.01",
                 "--sanitize-tick"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--sanitize-tick needs --sanitize" in captured.err


def test_run_rejects_stream_interval_without_stream_out(capsys):
    assert main(["run", "tab05", "--duration", "0.01",
                 "--stream-interval-ms", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--stream-interval-ms needs --stream-out" in captured.err


def test_run_rejects_profile_sort_without_profile(capsys):
    assert main(["run", "tab05", "--duration", "0.01",
                 "--profile-sort", "cumtime"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--profile-sort needs --profile" in captured.err


@pytest.mark.parametrize("sort", [None, "cumtime"])
def test_run_profile_sorts_hot_table(tmp_path, capsys, sort):
    """--profile alone sorts by tottime; --profile-sort picks the key."""
    argv = ["run", "tab05", "--duration", "0.01", "--profile",
            "--metrics-out", str(tmp_path / "m.prom")]
    if sort is not None:
        argv += ["--profile-sort", sort]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert f"[profile] wrote {tmp_path / 'm.pstats'} " \
        "(load with pstats or snakeviz); hottest functions:" in out
    assert (tmp_path / "m.pstats").is_file()
    header = next(i for i, ln in enumerate(out)
                  if ln.lstrip().startswith("ncalls"))
    rows = [ln.split() for ln in out[header + 1:] if ln.strip()]
    column = 3 if sort == "cumtime" else 1   # cumtime / tottime
    keys = [float(row[column]) for row in rows]
    assert keys and keys == sorted(keys, reverse=True)


def test_run_streams_into_missing_directory(tmp_path, capsys):
    """--stream-out creates its parent directory, like --trace and
    --metrics-out do, instead of failing mid-run."""
    path = tmp_path / "missing" / "deeper" / "s.jsonl"
    assert main(["run", "tab05", "--duration", "0.05",
                 "--stream-out", str(path)]) == 0
    assert "[obs] streamed" in capsys.readouterr().out
    assert path.read_text().splitlines()


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


@pytest.mark.parametrize("text,field", HOSTILE_PLANS, ids=HOSTILE_PLAN_IDS)
@pytest.mark.parametrize("command", ["run", "topology"])
def test_hostile_fault_plan_exits_2_at_load(tmp_path, capsys, command,
                                            text, field):
    plan = tmp_path / "plan.json"
    plan.write_text(text)
    if command == "run":
        args = ["run", "fig07"]
    else:
        topo = tmp_path / "t.json"
        topo.write_text(json.dumps({
            "nfs": [{"name": "nf2", "cycles": 300, "core": 0}],
            "chains": [{"name": "c", "nfs": ["nf2"]}],
            "flows": [{"id": "f", "chain": "c", "rate_pps": 1e6}],
        }))
        args = ["topology", str(topo)]
    assert main(args + ["--duration", "0.01",
                        "--fault-plan", str(plan)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot load fault plan: ")
    assert field in captured.err


#: A fault plan every single-host experiment's platform can take: core 0
#: fails early and a warm restart recovers its NFs.
CORE0_FAIL_PLAN = json.dumps({
    "specs": [{"kind": "core_fail", "target": "0", "at_s": 0.005}],
    "policy": "restart-warm",
})


@pytest.mark.parametrize("experiment,flag", [
    ("crosshost", "--stream-out"),
    ("crosshost", "--fault-plan"),
    ("cluster_scaling", "--fault-plan"),
    ("cluster_scaling", "--stream-out"),
    ("chaos_recovery", "--fault-plan"),
])
def test_run_flag_no_run_accepted_exits_2(tmp_path, capsys, experiment,
                                          flag):
    """A run flag that attached to no run of the experiment is an error,
    not a silent no-op."""
    plan = tmp_path / "plan.json"
    plan.write_text(CORE0_FAIL_PLAN)
    value = {"--sanitize": [], "--fault-plan": [str(plan)]}.get(
        flag, [str(tmp_path / "artifact")])
    assert main(["run", experiment, "--duration", "0.01", flag]
                + value) == 2
    err = capsys.readouterr().err
    assert (f"{flag} was given but no run of experiment {experiment} "
            f"accepted it") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("experiment,flag", [
    ("crosshost", "--sanitize"),
    ("crosshost", "--trace"),
    ("crosshost", "--metrics-out"),
])
def test_run_flag_accepted_exits_0(tmp_path, capsys, experiment, flag):
    """crosshost runs through ClusterScenario, so each of these flags
    attaches to its runs on its own."""
    artifact = tmp_path / "artifact"
    value = [] if flag == "--sanitize" else [str(artifact)]
    assert main(["run", experiment, "--duration", "0.01", flag]
                + value) == 0
    captured = capsys.readouterr()
    assert "accepted it" not in captured.err
    if flag == "--sanitize":
        assert "2 run(s), 0 violation(s)" in captured.out + captured.err
    elif flag == "--trace":
        sources = {ev.get("name") for ev in
                   json.loads(artifact.read_text())["traceEvents"]}
        assert {"xhost~r0.nf1@h0", "xhost~r0.nf2@h1"} <= sources
    else:
        assert 'link="h0.nic->h1.nic"' in artifact.read_text()


def test_run_fault_plan_accepted_exits_0(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(CORE0_FAIL_PLAN)
    assert main(["run", "fig07", "--duration", "0.01",
                 "--fault-plan", str(plan)]) == 0
    assert "accepted it" not in capsys.readouterr().err


def test_topology_fault_plan_beside_spec_faults_exits_2(tmp_path, capsys):
    """The spec's own ``faults`` section wins, so ``--fault-plan`` would
    be ignored: that is an error."""
    topo = tmp_path / "t.json"
    topo.write_text(json.dumps({
        "nfs": [{"name": "nf2", "cycles": 300, "core": 0}],
        "chains": [{"name": "c", "nfs": ["nf2"]}],
        "flows": [{"id": "f", "chain": "c", "rate_pps": 1e6}],
        "faults": {"specs": [{"kind": "crash", "target": "nf2",
                              "at_s": 0.005}]},
    }))
    plan = tmp_path / "plan.json"
    plan.write_text(CORE0_FAIL_PLAN)
    args = ["topology", str(topo), "--duration", "0.01"]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args + ["--fault-plan", str(plan)]) == 2
    err = capsys.readouterr().err
    assert (f"--fault-plan was given but no run of topology {topo} "
            f"accepted it") in err


EDGE_GATEWAY_TABLE = """
=== topology examples/topologies/edge_gateway.json (0.2s simulated) ===
    chain  tput Mpps  wasted Mpps  entry-drop Mpps
---------  ---------  -----------  ---------------
inspected       1.67            0             1.31
  trusted      0.498            0            0.001
"""

EDGE_GATEWAY_CRASH_TABLE = """
=== topology examples/topologies/edge_gateway.json (0.2s simulated) ===
    chain  tput Mpps  wasted Mpps  entry-drop Mpps
---------  ---------  -----------  ---------------
inspected       1.65        0.045             1.29
  trusted      0.499            0            0.001
[faults] injected=1 detected=1 recovered=1 gave_up=0 lost=32 \
requeued=2197 availability=0.9962
"""


@pytest.mark.parametrize("plan,expected", [
    (None, EDGE_GATEWAY_TABLE),
    ({"specs": [{"kind": "crash", "target": "dpi", "at_s": 0.05}],
      "policy": "restart-warm", "detection_period_s": 0.002,
      "restart_delay_s": 0.001}, EDGE_GATEWAY_CRASH_TABLE),
], ids=["plain", "dpi-crash"])
def test_topology_edge_gateway_stdout_pinned(tmp_path, monkeypatch, capsys,
                                             plan, expected):
    """``repro topology`` prints these exact bytes for the example spec."""
    import pathlib

    monkeypatch.chdir(pathlib.Path(__file__).resolve().parent.parent)
    args = ["topology", "examples/topologies/edge_gateway.json",
            "--duration", "0.2"]
    if plan is not None:
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        args += ["--fault-plan", str(path)]
    assert main(args) == 0
    assert capsys.readouterr().out == expected
