"""Bench: Figure 11 — all six orderings of the Low/Med/High chain (§4.3.2)."""

from benchmarks.conftest import bench_duration
from repro.experiments import fig11_chain_permutations as fig11
from repro.experiments.common import run_cases


def test_figure11_chain_permutations(benchmark, report):
    duration = bench_duration()
    results = benchmark.pedantic(
        lambda: run_cases(fig11.run_case, fig11.campaign_cases(duration)),
        rounds=1, iterations=1,
    )
    report(fig11.format_figure11(results))
