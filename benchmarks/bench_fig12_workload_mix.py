"""Bench: Figure 12 — workload heterogeneity, random per-flow NF order
(§4.3.3)."""

from benchmarks.conftest import bench_duration
from repro.experiments import fig12_workload_mix as fig12
from repro.experiments.common import run_cases


def test_figure12_workload_mix(benchmark, report):
    duration = bench_duration()
    results = benchmark.pedantic(
        lambda: run_cases(fig12.run_case, fig12.campaign_cases(duration)),
        rounds=1, iterations=1,
    )
    report(fig12.format_figure12(results))
