"""Reproductions of every table and figure in the paper's evaluation.

Each module exposes ``run_*`` functions returning structured results and a
``main(duration_s)`` that renders the same rows the paper reports.  A
sweep experiment defines its grid once, in ``campaign_cases(duration_s)``
(a list of :class:`~repro.experiments.common.CaseSpec`); its ``main`` runs
those cases serially through :func:`~repro.experiments.common.run_cases`
and ``render_cases``, and the campaign runner fans the same cases across
workers.  The ``benchmarks/`` tree wraps these in pytest-benchmark
targets; the mapping from paper artifact to module is in DESIGN.md §3.
"""

from repro.experiments.common import (
    FEATURE_SETS,
    Scenario,
    ScenarioResult,
    feature_config,
)

__all__ = ["Scenario", "ScenarioResult", "FEATURE_SETS", "feature_config"]
