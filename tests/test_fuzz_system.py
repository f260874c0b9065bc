"""System-level fuzzing: random topologies must preserve global invariants.

Hypothesis generates topologies (NF counts/costs, shared or per-flow
chains, core placements, feature sets, schedulers, loads) and the platform
must always satisfy: packet conservation, capacity bounds, non-negative
accounting, and state-machine consistency — the properties that hold for
*any* NFV workload, not just the paper's.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import Scenario
from repro.sched.base import TaskState
from repro.sim.clock import SEC

COSTS = [120, 270, 550, 1200, 2200, 4500]
SCHEDULERS = ["NORMAL", "BATCH", "RR_1MS", "RR_100MS", "COOP"]
FEATURES = ["Default", "CGroup", "OnlyBKPR", "NFVnice"]


@st.composite
def topologies(draw):
    n_nfs = draw(st.integers(1, 5))
    nfs = [
        (f"nf{i}", draw(st.sampled_from(COSTS)), draw(st.integers(0, 2)))
        for i in range(n_nfs)
    ]
    n_chains = draw(st.integers(1, 3))
    chains = []
    for c in range(n_chains):
        size = draw(st.integers(1, n_nfs))
        member_idx = draw(
            st.permutations(range(n_nfs)).map(lambda p: list(p)[:size]))
        chains.append([f"nf{i}" for i in member_idx])
    flows = []
    for c in range(n_chains):
        rate = draw(st.floats(min_value=1e4, max_value=8e6))
        flows.append((f"flow{c}", f"chain{c}", rate))
    return {
        "scheduler": draw(st.sampled_from(SCHEDULERS)),
        "features": draw(st.sampled_from(FEATURES)),
        "nfs": nfs,
        "chains": chains,
        "flows": flows,
        "seed": draw(st.integers(0, 2 ** 16)),
    }


def build_and_run(spec, duration_s=0.05):
    scenario = Scenario(scheduler=spec["scheduler"],
                        features=spec["features"],
                        seed=spec["seed"],
                        num_rx_threads=2)
    for name, cost, core in spec["nfs"]:
        scenario.add_nf(name, cost, core=core)
    for i, members in enumerate(spec["chains"]):
        scenario.add_chain(f"chain{i}", members)
    flows = [
        scenario.add_flow(fid, chain, rate_pps=rate)
        for fid, chain, rate in spec["flows"]
    ]
    result = scenario.run(duration_s)
    return scenario, flows, result


@given(spec=topologies())
@settings(max_examples=40, deadline=None)
def test_packet_conservation_any_topology(spec):
    scenario, flows, _result = build_and_run(spec)
    mgr = scenario.manager
    offered = sum(f.stats.offered for f in flows)
    delivered = sum(f.stats.delivered for f in flows)
    entry = sum(f.stats.entry_discards for f in flows)
    drops = sum(f.stats.queue_drops for f in flows)
    in_flight = len(mgr.nic.rx_ring) + sum(
        len(nf.rx_ring) + len(nf.tx_ring) for nf in mgr.nfs)
    assert offered == delivered + entry + drops + in_flight


@given(spec=topologies())
@settings(max_examples=25, deadline=None)
def test_capacity_and_accounting_bounds(spec):
    scenario, _flows, result = build_and_run(spec)
    duration_ns = result.duration_s * SEC
    for core in scenario.manager.cores.values():
        busy = core.stats.busy_ns + core.stats.overhead_ns + core.stats.idle_ns
        assert busy <= duration_ns * 1.001
        assert core.stats.busy_ns >= 0
        assert core.stats.idle_ns >= 0
    for nf in scenario.manager.nfs:
        assert nf.stats.runtime_ns <= duration_ns * 1.001
        assert nf.processed_packets >= 0
        # An NF can never emit more than it processed.
        assert nf.tx_ring.enqueued_total <= nf.processed_packets
        assert nf.state in (TaskState.BLOCKED, TaskState.READY,
                            TaskState.RUNNING)


@given(spec=topologies())
@settings(max_examples=25, deadline=None)
def test_per_chain_processing_consistency(spec):
    """An NF never processes more than it took off its Rx ring, and the
    chains ending at an NF never complete more than it processed."""
    scenario, _flows, _result = build_and_run(spec)
    completed_at = {nf.name: 0 for nf in scenario.manager.nfs}
    for chain in scenario.manager.chains.values():
        completed_at[chain.last().name] += chain.completed
    for nf in scenario.manager.nfs:
        assert nf.processed_packets <= nf.rx_ring.dequeued_total
        assert completed_at[nf.name] <= nf.processed_packets


@given(spec=topologies(), duration=st.sampled_from([0.02, 0.05]))
@settings(max_examples=15, deadline=None)
def test_determinism_any_topology(spec, duration):
    _s1, _f1, r1 = build_and_run(spec, duration)
    _s2, _f2, r2 = build_and_run(spec, duration)
    assert r1.total_throughput_pps == r2.total_throughput_pps
    assert r1.total_wasted_pps == r2.total_wasted_pps
    for name in r1.nfs:
        assert r1.nf(name).processed == r2.nf(name).processed


def test_accounting_identity_exact_on_spurious_wake_case():
    """Regression: the exact per-core accounting partition on the case
    that used to overshoot the horizon (a spurious wake — dispatch of a
    task whose estimate_run_ns is 0 — charged ctx_switch_ns with zero
    elapsed wall time).  busy + overhead + idle must equal the core's
    lifetime *exactly*, in integer nanoseconds."""
    spec = {
        "scheduler": "NORMAL",
        "features": "Default",
        "nfs": [(f"nf{i}", 120, 0) for i in range(4)],
        "chains": [["nf0"], ["nf1", "nf2"]],
        "flows": [("flow0", "chain0", 263084.0), ("flow1", "chain1", 10000.0)],
        "seed": 0,
    }
    scenario, _flows, _result = build_and_run(spec)
    for core in scenario.manager.cores.values():
        s = core.stats
        assert isinstance(s.busy_ns, int)
        assert isinstance(s.overhead_ns, int)
        assert isinstance(s.idle_ns, int)
        lifetime = scenario.manager.loop.now - core.epoch_ns
        assert s.busy_ns + s.overhead_ns + s.idle_ns == lifetime
