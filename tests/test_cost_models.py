"""Unit + property tests for per-packet cost models."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nfs.cost_models import (
    ChoiceCost,
    ExponentialCost,
    FixedCost,
    NormalCost,
    ScaledCost,
    UniformCost,
    WithOverhead,
)


def rng():
    return np.random.default_rng(0)


class TestFixedCost:
    def test_peek_and_consume(self):
        m = FixedCost(100)
        assert m.peek_sum(5) == 500
        assert m.consume(3) == 300
        assert m.mean_cycles == 100

    def test_consume_upto(self):
        m = FixedCost(100)
        assert m.consume_upto(350, 10) == (3, 300)
        assert m.consume_upto(99, 10) == (0, 0.0)
        assert m.consume_upto(1000, 2) == (2, 200)

    def test_invalid(self):
        with pytest.raises(ValueError):
            FixedCost(0)


class TestChoiceCost:
    def test_values_from_set(self):
        m = ChoiceCost((120, 270, 550), rng=rng())
        total = m.consume(1)
        assert total in (120, 270, 550)

    def test_mean(self):
        m = ChoiceCost((100, 300), probabilities=(0.5, 0.5), rng=rng())
        assert m.mean_cycles == 200

    def test_long_run_mean(self):
        m = ChoiceCost((120, 270, 550), rng=rng())
        total = m.consume(30_000)
        assert total / 30_000 == pytest.approx(m.mean_cycles, rel=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChoiceCost((0, 100))
        with pytest.raises(ValueError):
            ChoiceCost((1, 2), probabilities=(0.5,))
        with pytest.raises(ValueError):
            ChoiceCost((1, 2), probabilities=(0.9, 0.3))


class TestStochasticModels:
    @pytest.mark.parametrize("model,mean", [
        (NormalCost(500, 50, rng=rng()), 500),
        (UniformCost(100, 300, rng=rng()), 200),
        (ExponentialCost(800, rng=rng()), 800),
    ])
    def test_long_run_means(self, model, mean):
        total = model.consume(50_000)
        assert total / 50_000 == pytest.approx(mean, rel=0.05)

    def test_costs_clamped_positive(self):
        m = NormalCost(5, 100, rng=rng())  # heavy negative tail
        assert m.peek_sum(1000) >= 1000  # every packet >= 1 cycle

    def test_validation(self):
        with pytest.raises(ValueError):
            NormalCost(-1, 1)
        with pytest.raises(ValueError):
            UniformCost(10, 5)
        with pytest.raises(ValueError):
            ExponentialCost(0)


class TestBufferedDiscipline:
    """The contract the Core's run planner depends on: peeked == consumed."""

    def test_peek_equals_consume(self):
        m = ChoiceCost((120, 270, 550), rng=rng())
        peeked = m.peek_sum(100)
        consumed = m.consume(100)
        assert peeked == pytest.approx(consumed)

    def test_peek_is_idempotent(self):
        m = ExponentialCost(500, rng=rng())
        assert m.peek_sum(64) == m.peek_sum(64)

    def test_consume_upto_never_exceeds_budget(self):
        m = ChoiceCost((120, 270, 550), rng=rng())
        for budget in (0, 100, 119, 120, 1000, 12345):
            k, used = m.consume_upto(budget, 32)
            assert used <= budget
            assert 0 <= k <= 32

    def test_consume_upto_is_maximal(self):
        """Stopping early would under-use the grant: the next packet must
        not have fit."""
        m = ChoiceCost((120, 270, 550), rng=rng())
        budget = 5000.0
        k, used = m.consume_upto(budget, 32)
        if k < 32:
            next_cost = m.peek_sum(1)
            assert used + next_cost > budget

    @given(st.integers(1, 2000))
    @settings(max_examples=50, deadline=None)
    def test_buffer_compaction_consistency(self, n):
        m = UniformCost(50, 150, rng=np.random.default_rng(n))
        total = 0.0
        remaining = n
        while remaining:
            step = min(remaining, 97)
            total += m.consume(step)
            remaining -= step
        assert 50 * n <= total <= 150 * n


class TestWithOverhead:
    def test_fixed_inner(self):
        m = WithOverhead(FixedCost(100), 50)
        assert m.peek_sum(4) == 600
        assert m.mean_cycles == 150

    def test_consume_upto_accounts_overhead(self):
        m = WithOverhead(FixedCost(100), 50)
        k, used = m.consume_upto(460, 10)
        assert k == 3
        assert used == pytest.approx(450)

    def test_stochastic_inner_consistency(self):
        m = WithOverhead(ChoiceCost((120, 550), rng=rng()), 100)
        peeked = m.peek_sum(10)
        consumed = m.consume(10)
        assert peeked == pytest.approx(consumed)

    def test_budget_respected(self):
        m = WithOverhead(ChoiceCost((120, 270, 550), rng=rng()), 100)
        k, used = m.consume_upto(3000, 32)
        assert used <= 3000

    def test_negative_overhead_rejected(self):
        with pytest.raises(ValueError):
            WithOverhead(FixedCost(1), -1)


class TestCatalog:
    def test_catalog_costs(self, config):
        from repro.nfs.catalog import (
            make_bridge, make_dpi, make_encryptor, make_firewall,
            make_misbehaving, make_monitor,
        )

        assert make_bridge(config=config).cost_model.mean_cycles == 120
        assert make_monitor(config=config).cost_model.mean_cycles == 270
        assert make_firewall(config=config).cost_model.mean_cycles == 550
        assert make_dpi(config=config).cost_model.mean_cycles == 2200
        assert make_encryptor(config=config).cost_model.mean_cycles == 4500
        assert make_misbehaving(config=config).busy_loop

    def test_overhead_wrapping(self):
        """With framework overhead configured, catalog NFs fold it into
        their effective cost model."""
        from repro.nfs.catalog import make_bridge
        from repro.platform.config import PlatformConfig

        cfg = PlatformConfig(nf_overhead_cycles=100.0)
        nf = make_bridge(config=cfg)
        assert nf.cost_model.mean_cycles == 220


class TestParameterValidation:
    """Bad parameters fail at construction, naming the field — not as a
    NaN digest or a numpy error at the first draw."""

    @pytest.mark.parametrize("build,field", [
        (lambda: FixedCost(math.nan), "cycles"),
        (lambda: FixedCost(math.inf), "cycles"),
        (lambda: NormalCost(math.nan, 1), "mean"),
        (lambda: NormalCost(100, math.inf), "std"),
        (lambda: NormalCost(100, -1), "std"),
        (lambda: ExponentialCost(math.inf), "mean"),
        (lambda: ChoiceCost([math.nan, 2.0]), "values"),
        (lambda: ChoiceCost([]), "values"),
        (lambda: ChoiceCost([100, 200], [1.5, -0.5]), "probabilities"),
        (lambda: ChoiceCost([100, 200], [math.nan, 0.5]), "probabilities"),
        (lambda: UniformCost(1, math.inf), "high"),
        (lambda: UniformCost(math.nan, 5), "low"),
        (lambda: WithOverhead(FixedCost(100), math.nan), "overhead_cycles"),
        (lambda: ScaledCost(FixedCost(100), math.inf), "factor"),
        (lambda: ScaledCost(FixedCost(100), 0), "factor"),
        (lambda: FixedCost("fast"), "cycles"),
    ])
    def test_rejected_at_construction(self, build, field):
        with pytest.raises(ValueError, match=field):
            build()

    def test_boundary_values_still_accepted(self):
        assert NormalCost(100, 0).std == 0.0
        assert UniformCost(5, 5).mean_cycles == 5.0
        assert WithOverhead(FixedCost(100), 0).mean_cycles == 100.0
        assert ChoiceCost([100, 200], [1.0, 0.0]).mean_cycles == 100.0

    def test_topology_nan_cost_spec_names_field(self):
        from repro.platform.orchestrator import build_topology

        spec = json.loads("""{
          "nfs": [{"name": "x", "core": 0,
                   "cost": {"kind": "normal", "mean": NaN, "std": 10}}],
          "chains": [{"name": "c", "nfs": ["x"]}],
          "flows": [{"id": "f", "chain": "c", "rate_pps": 1e6}]
        }""")
        with pytest.raises(ValueError, match="mean"):
            build_topology(spec)
