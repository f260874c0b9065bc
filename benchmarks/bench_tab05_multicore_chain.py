"""Bench: Table 5 — 3-NF chain, one dedicated core per NF (§4.2.2)."""

from benchmarks.conftest import bench_duration
from repro.experiments import tab05_multicore_chain as tab05
from repro.experiments.common import run_cases


def test_table5_multicore_chain(benchmark, report):
    duration = bench_duration()
    results = benchmark.pedantic(
        lambda: run_cases(tab05.run_case, tab05.campaign_cases(duration)),
        rounds=1, iterations=1,
    )
    report(tab05.format_table5(results))
