"""Bench: Figure 16 — chain lengths 1..10, single- and multi-core
(§4.3.7)."""

from benchmarks.conftest import bench_duration
from repro.experiments import fig16_chain_length as fig16
from repro.experiments.common import run_cases


def test_figure16_chain_length(benchmark, report):
    duration = bench_duration()
    results = benchmark.pedantic(
        lambda: run_cases(fig16.run_case, fig16.campaign_cases(duration)),
        rounds=1, iterations=1,
    )
    report(fig16.format_figure16(results))
