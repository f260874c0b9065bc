"""Reproductions of every table and figure in the paper's evaluation.

Each module exposes ``run_*`` functions returning structured results and a
``main(duration_s)`` that renders the same rows the paper reports.  A
sweep experiment defines its grid once, in ``campaign_cases(duration_s)``
(a list of :class:`~repro.experiments.common.CaseSpec`); its ``main`` runs
those cases serially through :func:`~repro.experiments.common.run_cases`
and ``render_cases``, and the campaign runner fans the same cases across
workers.  :mod:`repro.experiments.claims` asserts the paper's shapes;
DESIGN.md §3 maps each paper artifact to its module and claim rows.
"""

from repro.experiments.common import (
    FEATURE_SETS,
    Scenario,
    ScenarioResult,
    feature_config,
)

__all__ = ["Scenario", "ScenarioResult", "FEATURE_SETS", "feature_config"]
