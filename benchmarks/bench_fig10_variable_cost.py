"""Bench: Figure 10 — variable per-packet processing cost (§4.3.1)."""

from benchmarks.conftest import bench_duration
from repro.experiments import fig10_variable_cost as fig10
from repro.experiments.common import run_cases


def test_figure10_variable_cost(benchmark, report):
    duration = bench_duration()
    results = benchmark.pedantic(
        lambda: run_cases(fig10.run_case, fig10.campaign_cases(duration)),
        rounds=1, iterations=1,
    )
    report(fig10.format_figure10(results))
