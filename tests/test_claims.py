"""Every row of the paper-claims table holds.

The rows live in :mod:`repro.experiments.claims`; one module-scoped
evaluation runs each distinct cell once, and each row is its own test so
a failure names the claim.  ``python -m repro.experiments.claims`` prints
the same verdicts as a report.
"""

import pytest

from repro.experiments.claims import CLAIMS, evaluate, render_claims


@pytest.fixture(scope="module")
def verdicts():
    return {v.claim.id: v for v in evaluate(CLAIMS)}


def test_claim_ids_unique():
    assert len({c.id for c in CLAIMS}) == len(CLAIMS)


@pytest.mark.parametrize("claim_id", [c.id for c in CLAIMS])
def test_claim(verdicts, claim_id):
    verdict = verdicts[claim_id]
    assert verdict.ok, render_claims([verdict])
