"""The repository's benchmark: five pinned workloads, end to end and per layer.

One run (what ``BENCHMARK.json``'s command does)::

    python3 bench/run.py --workload chain_sweep --seed 0 --seconds 15 --trace 0

times the workload for ``--seconds`` (every case at least twice), checks
every result digest, and prints the end-to-end metrics; its last stdout
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 1`` instead alternates untraced and traced passes and reports
the per-layer metrics, writing the span table to
``bench/out/trace_<workload>.json``.

A campaign of runs (each in a fresh subprocess, interleaved A B C D E,
A B C D E, ... so machine drift hits every workload alike)::

    python3 bench/run.py [--seed N] [--reps R] [--workloads a,b] [--trace]

prints every end-to-end metric per workload as median, min, max and n,
plus ``failed_frac``; ``--trace`` adds one traced run per workload.

See ``bench/README.md`` for the metrics, the layer map and the rules.
"""

import time

_T0 = time.perf_counter()  # setup_s starts here, before ``import repro``

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
DIGESTS = os.path.join(HERE, "digests.json")

#: ``BENCHMARK.json``'s ``run_seconds``.
DEFAULT_SECONDS = 15
#: Fresh processes timed per run for ``setup_s`` (the median is reported).
SETUP_PROBES = 5
#: Every case (campaign: every campaign) runs at least this often per run,
#: so each result is checked against a repeat of itself.
MIN_ROUNDS = 2
#: Digests are pinned for this seed only.
REFERENCE_SEED = 0
#: During a campaign, one calibration-kernel run per this many finished
#: tasks (about one per half second, ~1% of the parent's time).
KERNEL_EVERY_TASKS = 16


def _import_repro() -> None:
    """Import ``repro`` from this checkout's ``src``; exit 1 without it."""
    sys.path[:0] = [SRC, HERE]
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"bench: cannot import repro from {SRC}: {exc}")
    found = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    if found != SRC:
        sys.exit(f"bench: repro imported from {found}, not {SRC}")


def _median(values):
    return statistics.median(values) if values else 0.0


def spec_units(kind):
    """``{metric: unit}`` of ``BENCHMARK.json``'s ``end_to_end`` or
    ``per_layer`` list, in its order."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


# ----------------------------------------------------------------------
# Correctness accounting
# ----------------------------------------------------------------------
class Checker:
    """Counts attempts and failures; a failure is an exception, a digest
    that differs from the pinned reference, or one that differs from the
    first digest of the same case in this run."""

    def __init__(self, reference):
        self.reference = reference
        self.first = {}
        self.attempted = 0
        self.failed = 0

    def check(self, label, digest, weight=1):
        self.attempted += weight
        first = self.first.setdefault(label, digest)
        ok = digest is not None and digest == first and (
            self.reference is None or self.reference.get(label) == digest)
        if not ok:
            self.failed += weight
        return ok


def _reference(workload, seed):
    if seed != REFERENCE_SEED:
        print(f"[bench] no reference digests for seed {seed}: checking "
              f"repeat and traced/untraced agreement only", flush=True)
        return None
    with open(DIGESTS) as fh:
        return json.load(fh)[workload]


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
def _run_case(fn, kwargs):
    """One timed case: ``(result or None, wall_s, cpu_s)``."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result = fn(**kwargs)
    except Exception as exc:  # a failing case is counted, not fatal
        print(f"[bench] case raised {type(exc).__name__}: {exc}",
              file=sys.stderr, flush=True)
        result = None
    return result, time.perf_counter() - t0, time.process_time() - c0


def _digest(result):
    from workloads import result_digest

    return None if result is None else result_digest(result)


def time_cases(calls, checker, seconds=0.0, rounds=MIN_ROUNDS):
    """Cycle through ``calls`` until ``seconds`` have passed and every case
    ran ``rounds`` times.  Returns ``{label: [(wall_s, cpu_s, kernel_s)]}``
    where ``kernel_s`` is the mean calibration-kernel time around the case
    (see ``contention.py``)."""
    from contention import kernel_seconds

    samples = {label: [] for label, _fn, _kw in calls}
    deadline = time.perf_counter() + seconds
    before = kernel_seconds()
    i = 0
    while i < rounds * len(calls) or time.perf_counter() < deadline:
        label, fn, kwargs = calls[i % len(calls)]
        result, wall, cpu = _run_case(fn, kwargs)
        after = kernel_seconds()
        samples[label].append((wall, cpu, (before + after) / 2))
        before = after
        checker.check(label, _digest(result))
        i += 1
    return samples


def grid_seconds(samples, field, correct=True):
    """Sum over cases of the median of one field (0 wall, 1 cpu) of its
    samples, contention-corrected unless ``correct`` is False."""
    from contention import corrected

    return sum(_median([corrected(s[field], s[2]) if correct else s[field]
                        for s in case])
               for case in samples.values())


def traced_pass(calls, checker):
    """One pass under a :class:`SpanTracer`: ``(tracer, traced wall ns,
    contention-corrected traced wall s)``."""
    from contention import corrected, kernel_seconds
    from tracer import CASE_SPAN, SpanTracer

    results = []
    wall_ns = 0
    wall_corrected = 0.0
    before = kernel_seconds()
    with SpanTracer() as tr:
        for label, fn, kwargs in calls:
            t0 = time.perf_counter_ns()
            try:
                result = tr.wrap(CASE_SPAN, fn)(**kwargs)
            except Exception as exc:
                print(f"[bench] traced case raised {type(exc).__name__}: "
                      f"{exc}", file=sys.stderr, flush=True)
                result = None
            dt = time.perf_counter_ns() - t0
            after = kernel_seconds()
            wall_ns += dt
            wall_corrected += corrected(dt / 1e9, (before + after) / 2)
            before = after
            if result is not None:
                tr.end_case(result)
            results.append((label, result))
    for label, result in results:
        checker.check(label, _digest(result))
    return tr, wall_ns, wall_corrected


def _determinism_key(tr):
    return (tr.counters, {name: calls for name, (calls, _i, _s)
                          in tr.span_totals().items()})


def run_in_process(workload, seed, seconds, trace, checker):
    calls = workload.calls(seed)
    if not trace:
        samples = time_cases(calls, checker, seconds)
        kernels = [s[2] for case in samples.values() for s in case]
        print(f"[bench] {workload.name} uncorrected: wall "
              f"{grid_seconds(samples, 0, correct=False):.4f} s, cpu "
              f"{grid_seconds(samples, 1, correct=False):.4f} s; kernel "
              f"median {_median(kernels) * 1e3:.3f} ms", flush=True)
        return {
            "wall_s": grid_seconds(samples, 0),
            "cpu_s": grid_seconds(samples, 1),
            "peak_rss_mb": _rss_mb(resource.RUSAGE_SELF),
        }
    # Untraced and traced passes alternate, so both see the same drift.
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not (untraced and traced) or time.perf_counter() < deadline:
        if len(untraced) <= len(traced):
            samples = time_cases(calls, checker, rounds=1)
            untraced.append(grid_seconds(samples, 0))
        else:
            traced.append(traced_pass(calls, checker))
    keys = [_determinism_key(tr) for tr, _wall, _c in traced]
    if any(key != keys[0] for key in keys):
        print("[bench] deterministic counts differ between traced passes",
              file=sys.stderr, flush=True)
        checker.failed += 1
    per_pass = [tr.layer_metrics(wall) for tr, wall, _c in traced]
    # runner.* do not apply in-process and read 0.
    metrics = dict.fromkeys(spec_units("per_layer"), 0)
    metrics.update({name: _median([m[name] for m in per_pass])
                    for name in per_pass[0]})
    metrics["trace.overhead"] = (_median([c for _tr, _w, c in traced])
                                 / _median(untraced))
    tr, wall, _c = traced[0]
    _write_trace(workload.name, seed, dict(tr.to_json(wall),
                                           metrics=metrics))
    return metrics


def _write_trace(name, seed, payload):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace_{name}.json")
    with open(path, "w") as fh:
        json.dump(dict(payload, workload=name, seed=seed), fh, indent=1)
    print(f"[bench] wrote {os.path.relpath(path)}", flush=True)


# ----------------------------------------------------------------------
# The campaign workload
# ----------------------------------------------------------------------
def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_campaign_workload(workload, seed, seconds, trace, checker):
    from contention import corrected, kernel_seconds
    from repro.runner import run_campaign

    walls, cpus, runner = [], [], []
    deadline = time.perf_counter() + seconds
    kernels = [kernel_seconds()]
    finished = itertools.count(1)

    def sample_kernel(_outcome):
        # A pass lasts seconds: sample the machine's speed inside it too.
        if next(finished) % KERNEL_EVERY_TASKS == 0:
            kernels.append(kernel_seconds())

    while len(walls) < MIN_ROUNDS or time.perf_counter() < deadline:
        c0 = time.process_time() + _children_cpu()
        t0 = time.perf_counter()
        result = run_campaign(list(workload.ids), workers=workload.workers,
                              duration_s=workload.duration_s, seed=seed,
                              on_task_done=sample_kernel)
        wall = time.perf_counter() - t0
        cpu = time.process_time() + _children_cpu() - c0
        kernels.append(kernel_seconds())
        kernel_s = sum(kernels) / len(kernels)
        walls.append(corrected(wall, kernel_s))
        cpus.append(corrected(cpu, kernel_s))
        del kernels[:-1]
        outcomes = []
        for exp_id, report in result.experiments.items():
            n_tasks = len(report.tasks)
            bad = sum(1 for o in report.tasks if not o.ok)
            checker.check(exp_id, report.digest if not bad else None,
                          weight=n_tasks)
            outcomes += report.tasks
        runner.append(_runner_metrics(outcomes, workload.workers,
                                      result.elapsed_s))
    if not trace:
        return {
            "wall_s": _median(walls),
            "cpu_s": _median(cpus),
            "peak_rss_mb": max(_rss_mb(resource.RUSAGE_SELF),
                               _rss_mb(resource.RUSAGE_CHILDREN)),
        }
    # Tasks run in forked workers, out of the in-process tracer's reach:
    # the runner's own accounting is this workload's per-layer view, and
    # every other per-layer metric reads 0.
    metrics = dict.fromkeys(spec_units("per_layer"), 0)
    metrics.update({name: _median([r[name] for r in runner])
                    for name in runner[0]})
    return metrics


def _runner_metrics(outcomes, workers, elapsed_s):
    from repro.runner.digest import canonical_json

    tasks = len(outcomes)
    task_wall = sum(o.wall_s for o in outcomes)
    capacity = workers * elapsed_s
    payload = sum(len(canonical_json({k: v for k, v in o.payload.items()
                                      if k != "wall_s"}))
                  for o in outcomes if o.payload is not None)
    return {
        "runner.tasks": tasks,
        "runner.retries": sum(o.attempts for o in outcomes) - tasks,
        "runner.task_wall_s": task_wall,
        "runner.overhead_share": 1.0 - task_wall / capacity,
        "runner.overhead_ms_per_task": (capacity - task_wall) / tasks * 1e3,
        "runner.payload_kb": payload / 1024,
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def _rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024


def measure_setup(name, seed):
    """Median over fresh processes of first line -> first case ready,
    contention-corrected like every other time."""
    from contention import corrected, kernel_seconds

    values = []
    before = kernel_seconds()
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        after = kernel_seconds()
        values.append(corrected(float(out.stdout.split()[-1]),
                                (before + after) / 2))
        before = after
    return _median(values)


def setup_probe(name, seed):
    _import_repro()
    from workloads import WORKLOADS, Workload

    workload = WORKLOADS[name]
    if isinstance(workload, Workload):
        workload.calls(seed)
    else:
        from repro.runner import run_campaign  # noqa: F401
    print(time.perf_counter() - _T0)


def run_one(name, seed, seconds, trace):
    _import_repro()
    from workloads import WORKLOADS, Workload

    if name not in WORKLOADS:
        sys.exit(f"bench: unknown workload {name!r}; "
                 f"known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[name]
    # The campaign pool's temporary files stay inside the checkout.
    tempfile.tempdir = os.path.join(OUT, "tmp")
    os.makedirs(tempfile.tempdir, exist_ok=True)
    checker = Checker(_reference(name, seed))
    setup_s = None if trace else measure_setup(name, seed)
    runner = run_in_process if isinstance(workload, Workload) \
        else run_campaign_workload
    metrics = runner(workload, seed, seconds, trace, checker)
    if setup_s is not None:
        metrics["setup_s"] = setup_s
    units = spec_units("per_layer" if trace else "end_to_end")
    report = {metric: {"value": metrics[metric], "unit": unit}
              for metric, unit in units.items()}
    for metric, entry in report.items():
        print(f"[bench] {name} {metric} = {entry['value']:.6g} "
              f"{entry['unit']}", flush=True)
    print(f"[bench] {name} failed_frac = "
          f"{checker.failed / max(1, checker.attempted):.6g} ratio "
          f"({checker.failed}/{checker.attempted})", flush=True)
    print(json.dumps({"correct": checker.failed == 0,
                      "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": report}))
    return 0


# ----------------------------------------------------------------------
# Interleaved repetitions
# ----------------------------------------------------------------------
def _child_run(name, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        stdout=subprocess.PIPE, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"bench: run of {name} failed (exit {out.returncode})")
    return json.loads(lines[-1])


def run_reps(names, seed, seconds, reps, trace):
    runs = {name: [] for name in names}
    for rep in range(reps):
        for name in names:
            print(f"[bench] rep {rep + 1}/{reps} {name}", file=sys.stderr,
                  flush=True)
            runs[name].append(_child_run(name, seed, seconds, False))
    ok = True
    for name in names:
        attempted = sum(r["attempted"] for r in runs[name])
        failed = sum(r["failed"] for r in runs[name])
        ok = ok and failed == 0
        print(f"{name}  (n={len(runs[name])}, seed {seed})")
        for metric, unit in spec_units("end_to_end").items():
            values = [r["metrics"][metric]["value"] for r in runs[name]]
            print(f"  {metric:<12} median {_median(values):10.4f} {unit:<4}"
                  f" min {min(values):10.4f}  max {max(values):10.4f}")
        print(f"  {'failed_frac':<12} {failed / max(1, attempted):10.4f} "
              f"ratio ({failed}/{attempted} cases)")
    if trace:
        traced = {}
        for name in names:
            print(f"[bench] traced {name}", file=sys.stderr, flush=True)
            traced[name] = _child_run(name, seed, seconds, True)
            ok = ok and traced[name]["failed"] == 0
        print("per-layer (one traced run each)")
        print(f"  {'metric':<28}" + "".join(f"{n:>16}" for n in names))
        for metric, unit in spec_units("per_layer").items():
            print(f"  {metric:<28}" + "".join(
                f"{traced[n]['metrics'][metric]['value']:16.6g}"
                for n in names) + f"  {unit}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this one workload once")
    parser.add_argument("--workloads",
                        help="comma-separated subset (default: all five)")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload:
        return run_one(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    _import_repro()
    from workloads import WORKLOADS

    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}")
    return run_reps(names, args.seed, args.seconds, args.reps,
                    bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
