"""loop_stats counter surface + the digest-invisible contract.

These tests pin the hygiene counter surface, assert the counters never
leak into a digest, and that sanitized runs digest identically to plain
ones.  Each runs under both loop variants of ``tests.conftest``: the
variant that compacts heaps of every size moves the counters but must
never move a digest.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.export import result_to_dict
from repro.check.sanitizer import Sanitizer
from repro.experiments.common import RunContext, Scenario
from repro.runner.digest import digest_of
from repro.sim.engine import EventLoop
from tests.conftest import (
    COMPACTING, LOOP_VARIANTS, STOCK, compacting_on_cancel,
)

#: The loop must report exactly this counter surface.
STATS_KEYS = {"pushes", "pops", "lazy_cancel_skips", "compactions",
              "peak_pending"}


def small_run(duration_s=0.02, scheduler="NORMAL"):
    """Three NFs overloading one core: relinquish and wakeup preemption
    cancel planned run ends, so the lazy-cancel path is exercised."""
    scenario = Scenario(scheduler=scheduler, features="NFVnice", seed=3)
    scenario.add_nf("nf0", 120, core=0)
    scenario.add_nf("nf1", 270, core=0)
    scenario.add_nf("nf2", 550, core=0)
    scenario.add_chain("chain0", ["nf0", "nf1", "nf2"])
    scenario.add_chain("chain1", ["nf2"])
    scenario.add_flow("flow0", "chain0", rate_pps=5e6)
    scenario.add_flow("flow1", "chain1", rate_pps=5e6)
    return scenario.run(duration_s)


def use_variant(variant, monkeypatch):
    """Make every EventLoop a scenario builds run as ``variant``."""
    if variant == COMPACTING:
        monkeypatch.setattr(EventLoop, "_on_cancel", compacting_on_cancel)


def sanitized_run(scheduler="NORMAL"):
    with RunContext(sanitizer=Sanitizer(per_tick=True)):
        return small_run(scheduler=scheduler)


@pytest.mark.parametrize("engine", LOOP_VARIANTS)
def test_loop_stats_surface_is_engine_tagged(engine, monkeypatch):
    use_variant(engine, monkeypatch)
    stats = small_run().loop_stats
    assert set(stats) == STATS_KEYS
    assert stats["pops"] > 0
    assert stats["pushes"] >= stats["pops"] - stats["lazy_cancel_skips"]
    assert stats["peak_pending"] > 0
    if engine == COMPACTING:
        # Every cancelled entry is compacted away before it can be popped.
        assert stats["compactions"] > 0
        assert stats["lazy_cancel_skips"] == 0


def test_loop_stats_never_enter_the_digest(monkeypatch):
    """Same behaviour, different hygiene counters => same digest: the
    exported dict must not contain loop_stats at all."""
    stats, exported = {}, {}
    for engine in LOOP_VARIANTS:
        with monkeypatch.context() as patch:
            use_variant(engine, patch)
            result = small_run()
        d = result_to_dict(result)
        assert "loop_stats" not in json.dumps(d)
        stats[engine] = result.loop_stats
        exported[engine] = digest_of(d)
    # The counters differ between variants (compactions, peak length) but
    # the digest is identical — the counters are provably invisible.
    assert stats[STOCK] != stats[COMPACTING]
    assert exported[STOCK] == exported[COMPACTING]


@pytest.mark.parametrize("engine", LOOP_VARIANTS)
def test_sanitized_run_digests_identically_per_engine(engine, monkeypatch):
    """--sanitize must not perturb results: the sanitizer's integer
    time-partition probes ride the same event stream, so a clean
    sanitized run is bit-identical to a plain one."""
    use_variant(engine, monkeypatch)
    plain = small_run()
    sanitized = sanitized_run()
    assert sanitized.sanitizer_violations == []
    assert digest_of(result_to_dict(plain)) \
        == digest_of(result_to_dict(sanitized))


def test_sanitized_digest_identical_across_engines(monkeypatch):
    """The cross product: sanitized under both variants == plain."""
    digests = {digest_of(result_to_dict(small_run(scheduler="DEADLINE")))}
    for engine in LOOP_VARIANTS:
        with monkeypatch.context() as patch:
            use_variant(engine, patch)
            result = sanitized_run(scheduler="DEADLINE")
        assert result.sanitizer_violations == []
        digests.add(digest_of(result_to_dict(result)))
    assert len(digests) == 1
