"""Bench: Figure 7 + Tables 3-4 — 3-NF chain on one shared core (§4.2.1)."""

from benchmarks.conftest import bench_duration
from repro.experiments import fig07_single_core_chain as fig07
from repro.experiments.common import run_cases

_cache = {}


def _grid(duration):
    if duration not in _cache:
        _cache[duration] = run_cases(fig07.run_case,
                                     fig07.campaign_cases(duration))
    return _cache[duration]


def test_figure7_throughput(benchmark, report):
    duration = bench_duration()
    results = benchmark.pedantic(lambda: _grid(duration),
                                 rounds=1, iterations=1)
    report(fig07.format_figure7(results))


def test_table3_drop_rate(benchmark, report):
    duration = bench_duration()
    results = benchmark.pedantic(lambda: _grid(duration),
                                 rounds=1, iterations=1)
    report(fig07.format_table3(results))


def test_table4_sched_latency_runtime(benchmark, report):
    duration = bench_duration()
    results = benchmark.pedantic(lambda: _grid(duration),
                                 rounds=1, iterations=1)
    report(fig07.format_table4(results))
