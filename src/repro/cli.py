"""Command-line interface: run any paper-artifact experiment.

Usage::

    python -m repro list
    python -m repro run fig07 --duration 2.0
    python -m repro run tab05
    python -m repro campaign --workers 4 --baseline BENCH_campaign.json
    python -m repro campaign fig07 fig11 --workers 2 --baseline B.json --check
    python -m repro topology my_topology.json --duration 1.0

``run`` prints the same rows the paper's table/figure reports (each
experiment module's ``main``); ``campaign`` fans many experiments (and
the per-configuration cases inside their sweeps) across worker processes
and maintains a digest/wall-clock regression baseline (see
``docs/campaigns.md``); ``topology`` builds a declarative JSON topology
(see :mod:`repro.platform.orchestrator`) and reports per-chain
throughput.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Dict, Optional, Sequence

from repro.metrics.report import render_table

#: experiment id -> (module path, description).  The id space mirrors
#: DESIGN.md's experiment index.
EXPERIMENTS: Dict[str, tuple] = {
    "fig01": ("repro.experiments.fig01_motivation",
              "Fig 1 + Tables 1-2: scheduler motivation study"),
    "fig07": ("repro.experiments.fig07_single_core_chain",
              "Fig 7 + Tables 3-4: 3-NF chain on one shared core"),
    "tab05": ("repro.experiments.tab05_multicore_chain",
              "Table 5: chain with one core per NF"),
    "fig09": ("repro.experiments.fig09_shared_chains",
              "Fig 9 + Table 6: two chains sharing NF instances"),
    "fig10": ("repro.experiments.fig10_variable_cost",
              "Fig 10: variable per-packet cost"),
    "fig11": ("repro.experiments.fig11_chain_permutations",
              "Fig 11: all orderings of the Low/Med/High chain"),
    "fig12": ("repro.experiments.fig12_workload_mix",
              "Fig 12: random per-flow NF orders"),
    "fig13": ("repro.experiments.fig13_isolation",
              "Fig 13: TCP vs UDP performance isolation"),
    "fig14": ("repro.experiments.fig14_io",
              "Fig 14: async vs sync NF disk I/O"),
    "fig15": ("repro.experiments.fig15_fairness",
              "Fig 15: dynamic tuning + fairness vs diversity"),
    "fig16": ("repro.experiments.fig16_chain_length",
              "Fig 16: chain lengths 1..10, SC and MC"),
    "tuning": ("repro.experiments.tuning_watermarks",
               "Sec 4.3.8: watermark tuning sweeps"),
    "ablations": ("repro.experiments.ablations",
                  "Ablations: selectivity, hysteresis, estimator, period"),
    "ecn": ("repro.experiments.ecn_extension",
            "ECN congestion-signalling extension"),
    "numa": ("repro.experiments.numa_placement",
             "NUMA-aware vs cross-socket chain placement"),
    "priority": ("repro.experiments.priority_differentiation",
                 "Sec 3.2: priority-weighted differentiated service"),
    "crosshost": ("repro.experiments.cross_host_ecn",
                  "Sec 3.3: cross-host chain with ECN signalling"),
    "coop": ("repro.experiments.cooperative_comparison",
             "Sec 5: cooperative (L-thread) scheduling comparison"),
    "chaos_recovery": ("repro.experiments.chaos_recovery",
                       "Chaos: fault kind x detection x recovery policy"),
    "slo_battery": ("repro.experiments.slo_battery",
                    "SLO battery: bursty/flash/mixed x NORMAL/EDF/DEADLINE"),
    "cluster_scaling": ("repro.experiments.cluster_scaling",
                        "Cluster: flash/mmpp x 2/4/8 hosts x auto/static "
                        "VNF scaling"),
}


def _cmd_list(_args: argparse.Namespace) -> int:
    rows = [[name, desc] for name, (_mod, desc) in sorted(EXPERIMENTS.items())]
    print(render_table(["experiment", "reproduces"], rows,
                       title="available experiments"))
    return 0


def _bad_duration(duration: Optional[float]) -> bool:
    """Report (on stderr) a ``--duration`` that is given but not a finite
    positive number."""
    if duration is None or (math.isfinite(duration) and duration > 0):
        return False
    print(f"--duration must be a positive number of simulated seconds "
          f"(got {duration})", file=sys.stderr)
    return True


#: ``repro run``/``repro topology`` flag (argparse dest) -> the
#: :class:`~repro.experiments.common.RunContext` part that carries it.
_RUN_FLAG_PARTS = (
    ("trace", "session"),
    ("metrics_out", "session"),
    ("stream_out", "stream"),
    ("sanitize", "sanitizer"),
    ("fault_plan", "fault_plan"),
)


def _run_context(args: argparse.Namespace):
    """The :class:`~repro.experiments.common.RunContext` for the run flags
    in ``args``; None after reporting (on stderr) a fault plan that cannot
    be loaded."""
    from repro.experiments.common import RunContext

    plan = None
    if args.fault_plan is not None:
        from repro.faults.plan import FaultPlan

        try:
            plan = FaultPlan.from_file(args.fault_plan)
        except (OSError, ValueError, RuntimeError) as exc:
            print(f"cannot load fault plan: {exc}", file=sys.stderr)
            return None
    session = None
    if any(getattr(args, dest, None) is not None
           for dest in ("trace", "metrics_out", "stream_out")):
        from repro.obs.session import ObsSession
        from repro.sim.clock import MSEC

        session = ObsSession(
            trace_path=args.trace,
            metrics_path=args.metrics_out,
            stream_path=args.stream_out,
            stream_interval_ns=int(
                (getattr(args, "stream_interval_ms", None) or 100.0) * MSEC),
        )
    sanitizer = None
    if getattr(args, "sanitize", False):
        from repro.check.sanitizer import Sanitizer

        sanitizer = Sanitizer(per_tick=args.sanitize_tick)
    return RunContext(session=session, sanitizer=sanitizer, fault_plan=plan)


def _unaccepted_flags(args: argparse.Namespace, ctx, what: str) -> bool:
    """Report (on stderr) each run flag given on the command line that no
    run of ``what`` accepted."""
    unaccepted = [dest for dest, part in _RUN_FLAG_PARTS
                  if getattr(args, dest, None) and not ctx.attached[part]]
    for dest in unaccepted:
        print(f"--{dest.replace('_', '-')} was given but no run of {what} "
              f"accepted it", file=sys.stderr)
    return bool(unaccepted)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; "
              f"try: python -m repro list", file=sys.stderr)
        return 2
    if _bad_duration(args.duration):
        return 2
    import importlib

    module_path, _desc = EXPERIMENTS[args.experiment]
    module = importlib.import_module(module_path)
    kwargs = {}
    if args.duration is not None:
        kwargs["duration_s"] = args.duration
    if args.stream_interval_ms is not None:
        if not (math.isfinite(args.stream_interval_ms)
                and args.stream_interval_ms > 0):
            print("--stream-interval-ms must be a positive number of "
                  f"milliseconds (got {args.stream_interval_ms})",
                  file=sys.stderr)
            return 2
        if args.stream_out is None:
            print("--stream-interval-ms needs --stream-out", file=sys.stderr)
            return 2
    if args.stream_out is not None and not str(args.stream_out).strip():
        print("--stream-out needs a non-empty path", file=sys.stderr)
        return 2
    if args.sanitize_tick and not args.sanitize:
        print("--sanitize-tick needs --sanitize", file=sys.stderr)
        return 2
    if args.profile_sort is not None and not args.profile:
        print("--profile-sort needs --profile", file=sys.stderr)
        return 2
    ctx = _run_context(args)
    if ctx is None:
        return 2
    session, sanitizer = ctx.session, ctx.sanitizer
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
    try:
        with ctx:
            if profiler is not None:
                profiler.enable()
                try:
                    out = module.main(**kwargs)
                finally:
                    profiler.disable()
                print(out)
            else:
                print(module.main(**kwargs))
    finally:
        if session is not None:
            summary = session.finalize()
            if summary:
                print(summary)
    if sanitizer is not None:
        for violation in sanitizer.violations:
            print(violation.render(), file=sys.stderr)
        print(f"[sanitize] {sanitizer.runs} run(s), "
              f"{len(sanitizer.violations)} violation(s)")
    if _unaccepted_flags(args, ctx, f"experiment {args.experiment}"):
        return 2
    if sanitizer is not None and sanitizer.violations:
        return 1
    if profiler is not None:
        import io as _io
        import os
        import pstats

        # Drop the profile next to whatever artifact the run produced
        # (metrics or trace output), falling back to the experiment id.
        base = args.metrics_out or args.trace
        if base:
            prof_path = os.path.splitext(base)[0] + ".pstats"
        else:
            prof_path = f"{args.experiment}.pstats"
        profiler.dump_stats(prof_path)
        buf = _io.StringIO()
        stats = pstats.Stats(profiler, stream=buf)
        stats.sort_stats(args.profile_sort or "tottime").print_stats(15)
        print(f"[profile] wrote {prof_path} "
              f"(load with pstats or snakeviz); hottest functions:")
        # Skip the pstats header lines; show just the table.
        lines = buf.getvalue().splitlines()
        try:
            start = next(i for i, ln in enumerate(lines)
                         if ln.lstrip().startswith("ncalls"))
            print("\n".join(lines[start:start + 16]))
        except StopIteration:  # pragma: no cover - pstats format change
            print(buf.getvalue())
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    import os

    from repro.runner.baseline import (
        check_campaign, load_baseline, write_baseline,
    )
    from repro.runner.campaign import run_campaign

    ids = args.experiments or sorted(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment id(s): {', '.join(unknown)}; "
              f"try: python -m repro list", file=sys.stderr)
        return 2
    duplicates = sorted({i for i in ids if ids.count(i) > 1})
    if duplicates:
        print(f"duplicate experiment id(s): {', '.join(duplicates)}",
              file=sys.stderr)
        return 2
    if args.check and args.baseline is None:
        print("--check requires --baseline", file=sys.stderr)
        return 2
    if _bad_duration(args.duration):
        return 2
    if not args.max_regression >= 0:
        print(f"--max-regression must be >= 0 (got {args.max_regression})",
              file=sys.stderr)
        return 2
    if not (math.isfinite(args.task_timeout) and args.task_timeout > 0):
        print(f"--task-timeout must be a positive number of seconds "
              f"(got {args.task_timeout})", file=sys.stderr)
        return 2
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
    if workers < 1:
        print(f"--workers must be >= 1 (got {workers})", file=sys.stderr)
        return 2

    on_done = None
    if not args.quiet:
        def on_done(outcome):
            print(f"[campaign] {outcome.spec.task_id}: {outcome.status} "
                  f"({outcome.wall_s:.2f}s, attempt {outcome.attempts})",
                  file=sys.stderr)

    campaign = run_campaign(
        ids,
        workers=workers,
        duration_s=args.duration,
        seed=args.seed,
        task_timeout_s=args.task_timeout,
        on_task_done=on_done,
    )

    rows = []
    for exp_id, report in campaign.experiments.items():
        tput = report.sim_time_throughput
        rows.append([
            exp_id,
            len(report.tasks),
            round(report.task_wall_s, 2),
            round(tput, 2) if tput is not None else "-",
            report.digest[:12] if report.digest else "-",
            report.status,
        ])
    print(render_table(
        ["experiment", "tasks", "wall s", "sim s/s", "digest", "status"],
        rows,
        title=f"campaign: {len(ids)} experiments, "
              f"{workers} worker(s), {campaign.elapsed_s:.1f}s elapsed",
    ))
    for report in campaign.experiments.values():
        for failure in report.failures:
            print(f"[campaign] FAILED {failure}", file=sys.stderr)

    if args.artifacts is not None:
        os.makedirs(args.artifacts, exist_ok=True)
        for exp_id, report in campaign.experiments.items():
            if report.artifact is not None:
                path = os.path.join(args.artifacts, f"{exp_id}.txt")
                with open(path, "w") as fh:
                    fh.write(report.artifact + "\n")
        print(f"[campaign] artifacts written to {args.artifacts}",
              file=sys.stderr)

    rc = 0 if campaign.ok else 1
    if args.baseline is not None:
        if args.check:
            try:
                baseline = load_baseline(args.baseline)
            except (OSError, ValueError) as exc:
                print(f"[campaign] cannot load baseline: {exc}",
                      file=sys.stderr)
                return 1
            problems = check_campaign(baseline, campaign,
                                      max_regression=args.max_regression)
            for problem in problems:
                print(f"[campaign] CHECK FAILED {problem}", file=sys.stderr)
            if problems:
                rc = 1
            else:
                print(f"[campaign] check passed against {args.baseline}")
        else:
            write_baseline(args.baseline, campaign)
            print(f"[campaign] baseline written to {args.baseline}")
    return rc


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    import json

    from repro.obs.stream import diff_telemetry, load_telemetry

    try:
        baseline = load_telemetry(args.baseline)
        candidate = load_telemetry(args.candidate)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot load telemetry: {exc}", file=sys.stderr)
        return 2
    if args.max_regression < 0:
        print(f"--max-regression must be >= 0 (got {args.max_regression})",
              file=sys.stderr)
        return 2
    report, regressions = diff_telemetry(
        baseline, candidate, max_regression=args.max_regression)
    print(report)
    return 1 if regressions else 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check.simcheck import main as simcheck_main

    out = None
    if args.output is not None:
        try:
            out = open(args.output, "w", encoding="utf-8")
        except OSError as exc:
            print(f"check: cannot write {args.output}: {exc}",
                  file=sys.stderr)
            return 2
    try:
        return simcheck_main(
            args.paths or ["src"],
            as_json=args.json,
            out=out,
            deep=args.deep,
            fmt=args.format,
            explain_code=args.explain,
        )
    finally:
        if out is not None:
            out.close()


def _cmd_topology(args: argparse.Namespace) -> int:
    from repro.platform.orchestrator import load_topology

    if _bad_duration(args.duration):
        return 2
    try:
        scenario = load_topology(args.path, seed=args.seed)
    except (OSError, ValueError) as exc:
        print(f"topology: {args.path}: {exc}", file=sys.stderr)
        return 2
    ctx = _run_context(args)
    if ctx is None:
        return 2
    with ctx:
        result = scenario.run(args.duration)
    rows = [[chain.name,
             round(chain.throughput_pps / 1e6, 3),
             round(chain.wasted_drop_pps / 1e6, 3),
             round(chain.entry_discard_pps / 1e6, 3)]
            for chain in result.chains.values()]
    print(render_table(
        ["chain", "tput Mpps", "wasted Mpps", "entry-drop Mpps"], rows,
        title=f"topology {args.path} ({args.duration:g}s simulated)",
    ))
    s = result.resilience
    if s:
        print(f"[faults] injected={s['injected']} detected={s['detected']} "
              f"recovered={s['recovered']} gave_up={s['gave_up']} "
              f"lost={s['packets_lost']} requeued={s['packets_requeued']} "
              f"availability={s['availability']:.4f}")
    if _unaccepted_flags(args, ctx, f"topology {args.path}"):
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.obs.stream import REL_TOLERANCE

    parser = argparse.ArgumentParser(
        prog="repro",
        description="NFVnice (SIGCOMM 2017) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments") \
        .set_defaults(func=_cmd_list)

    run = sub.add_parser("run", help="run one experiment and print its "
                                     "paper-artifact table")
    run.add_argument("experiment", help="experiment id (see 'list')")
    run.add_argument("--duration", type=float, default=None,
                     help="simulated seconds per case (experiment default "
                          "if omitted)")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="write a Chrome/Perfetto trace-event JSON of "
                          "scheduler, ring, backpressure, ECN and wakeup "
                          "activity to PATH")
    run.add_argument("--metrics-out", default=None, metavar="PATH",
                     help="write Prometheus text-format metrics to PATH")
    run.add_argument("--stream-out", default=None, metavar="PATH",
                     help="stream periodic telemetry snapshots (gauges, "
                          "latency percentiles, backpressure attribution) "
                          "as JSONL to PATH while the run executes")
    run.add_argument("--stream-interval-ms", type=float, default=None,
                     metavar="N",
                     help="simulated milliseconds between streamed "
                          "snapshots (needs --stream-out; default 100)")
    run.add_argument("--fault-plan", default=None, metavar="PATH",
                     help="inject faults from a JSON/YAML FaultPlan into "
                          "every scenario the experiment builds (see "
                          "docs/faults.md)")
    run.add_argument("--sanitize", action="store_true",
                     help="check runtime invariants (packet conservation, "
                          "exact core time accounting, vruntime "
                          "monotonicity, ring bounds); exit 1 on any "
                          "violation (see docs/static-analysis.md)")
    run.add_argument("--sanitize-tick", action="store_true",
                     help="with --sanitize: also sample the monotonicity/"
                          "occupancy checks every 1 ms of simulated time")
    run.add_argument("--profile", action="store_true",
                     help="run under cProfile; writes a .pstats dump next "
                          "to the --metrics-out/--trace file (or "
                          "<experiment>.pstats) and prints the hottest "
                          "functions")
    run.add_argument("--profile-sort", default=None,
                     choices=["tottime", "cumtime", "ncalls", "pcalls",
                              "filename", "name"],
                     metavar="KEY",
                     help="sort key for the --profile hot-function table "
                          "(needs --profile; tottime, cumtime, ncalls, "
                          "pcalls, filename, "
                          "name; default tottime — use cumtime to see "
                          "callback cost inside run_until, see "
                          "docs/performance.md)")
    run.set_defaults(func=_cmd_run)

    campaign = sub.add_parser(
        "campaign",
        help="run many experiments in parallel worker processes with a "
             "digest/wall-clock regression baseline")
    campaign.add_argument("experiments", nargs="*", metavar="experiment",
                          help="experiment ids (default: all)")
    campaign.add_argument("--workers", type=int, default=None,
                          help="worker processes (default: CPU count)")
    campaign.add_argument("--duration", type=float, default=None,
                          help="simulated seconds per case (experiment "
                               "defaults if omitted)")
    campaign.add_argument("--seed", type=int, default=0,
                          help="campaign seed; 0 (default) keeps each "
                               "case's own seed so results match the "
                               "serial experiments bit-for-bit")
    campaign.add_argument("--baseline", default=None, metavar="PATH",
                          help="baseline JSON (e.g. BENCH_campaign.json): "
                               "written/merged by default, compared with "
                               "--check")
    campaign.add_argument("--check", action="store_true",
                          help="fail on result-digest drift or wall-clock "
                               "regression against --baseline instead of "
                               "rewriting it")
    campaign.add_argument("--max-regression", type=float, default=0.15,
                          metavar="FRAC",
                          help="allowed fractional wall-clock growth per "
                               "experiment in --check mode (default 0.15)")
    campaign.add_argument("--task-timeout", type=float, default=600.0,
                          metavar="SEC",
                          help="per-task timeout; a timed-out task is "
                               "retried once (default 600)")
    campaign.add_argument("--artifacts", default=None, metavar="DIR",
                          help="also write each experiment's rendered "
                               "artifact to DIR/<id>.txt")
    campaign.add_argument("--quiet", action="store_true",
                          help="suppress per-task progress on stderr")
    campaign.set_defaults(func=_cmd_campaign)

    obs = sub.add_parser(
        "obs",
        help="telemetry utilities (compare two runs' streamed snapshots)")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    diff = obs_sub.add_parser(
        "diff",
        help="compare two telemetry files (--stream-out JSONL or JSON "
             "reports) and flag percentile regressions")
    diff.add_argument("baseline", help="baseline telemetry file (run A)")
    diff.add_argument("candidate", help="candidate telemetry file (run B)")
    diff.add_argument("--max-regression", type=float, default=REL_TOLERANCE,
                      metavar="FRAC",
                      help="allowed fractional percentile growth before a "
                           "row is flagged (default 0.10)")
    diff.set_defaults(func=_cmd_obs_diff)

    check = sub.add_parser(
        "check",
        help="lint for determinism/precision hazards (simcheck; see "
             "docs/static-analysis.md)")
    check.add_argument("paths", nargs="*", metavar="PATH",
                       help="files or directories to lint (default: src)")
    check.add_argument("--json", action="store_true",
                       help="machine-readable JSON report (same as "
                            "--format json)")
    check.add_argument("--deep", action="store_true",
                       help="also run the whole-program flow passes "
                            "(digest taint SIM6xx, lifted SIM101/SIM401 "
                            "as SIM611/SIM612, pool safety SIM7xx) over "
                            "the project call graph")
    check.add_argument("--format", default=None,
                       choices=["text", "json", "sarif"],
                       help="output format (sarif targets GitHub code "
                            "scanning)")
    check.add_argument("-o", "--output", default=None, metavar="PATH",
                       help="write the report to PATH instead of stdout")
    check.add_argument("--explain", default=None, metavar="CODE",
                       help="print the documentation for one rule code "
                            "(e.g. SIM601) and exit")
    check.set_defaults(func=_cmd_check)

    topo = sub.add_parser("topology", help="run a declarative JSON topology")
    topo.add_argument("path", help="path to the topology JSON file")
    topo.add_argument("--duration", type=float, default=1.0)
    topo.add_argument("--seed", type=int, default=0)
    topo.add_argument("--fault-plan", default=None, metavar="PATH",
                      help="inject faults from a JSON/YAML FaultPlan "
                           "(exit 2 if the topology has its own "
                           "'faults' section)")
    topo.set_defaults(func=_cmd_topology)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
