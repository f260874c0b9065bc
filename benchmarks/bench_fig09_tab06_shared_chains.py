"""Bench: Figure 9 + Table 6 — two chains sharing NF1/NF4 (§4.2.2)."""

from benchmarks.conftest import bench_duration
from repro.experiments import fig09_shared_chains as fig09
from repro.experiments.common import run_cases


def test_figure9_table6_shared_chains(benchmark, report):
    duration = bench_duration()
    results = benchmark.pedantic(
        lambda: run_cases(fig09.run_case, fig09.campaign_cases(duration)),
        rounds=1, iterations=1,
    )
    report("\n".join([
        fig09.format_figure9(results),
        fig09.format_table6(results),
    ]))
