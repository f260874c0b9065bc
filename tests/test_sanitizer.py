"""Runtime invariant sanitizer: clean runs, injected corruption, digests.

A clean run under ``--sanitize`` must report nothing and digest
identically to an unsanitized run.  Each injection test corrupts one
counter after a plain run and asserts the matching check fires — proving
the sanitizer would have caught that violation class for real.
"""

from __future__ import annotations

import json

from repro.analysis.export import result_from_dict, result_to_dict
from repro.check.sanitizer import Sanitizer, SanitizerViolation
from repro.experiments.common import RunContext, Scenario, current_run_context


def small_run(scheduler="NORMAL", seed=1, duration_s=0.02):
    scenario = Scenario(scheduler=scheduler, features="Default", seed=seed)
    scenario.add_nf("nf0", 120, core=0)
    scenario.add_nf("nf1", 270, core=0)
    scenario.add_chain("chain0", ["nf0", "nf1"])
    scenario.add_flow("flow0", "chain0", rate_pps=50_000.0)
    result = scenario.run(duration_s)
    return scenario, result


def checks_of(violations):
    return {v.check for v in violations}


# ----------------------------------------------------------------------
# Clean runs
# ----------------------------------------------------------------------
def test_clean_run_reports_zero_violations():
    sanitizer = Sanitizer(per_tick=True)
    with RunContext(sanitizer=sanitizer):
        _scenario, result = small_run()
    assert result.sanitizer_violations == []
    assert sanitizer.violations == []
    assert sanitizer.runs == 1
    assert current_run_context() is None


def test_clean_run_all_schedulers():
    for scheduler in ("NORMAL", "BATCH", "RR_1MS", "COOP", "EDF",
                      "DEADLINE"):
        sanitizer = Sanitizer()
        with RunContext(sanitizer=sanitizer):
            _scenario, result = small_run(scheduler=scheduler)
        assert result.sanitizer_violations == [], scheduler


def test_sanitized_run_digests_identically_to_plain_run():
    _s1, plain = small_run()
    with RunContext(sanitizer=Sanitizer(per_tick=True)):
        _s2, sanitized = small_run()
    assert json.dumps(result_to_dict(plain), sort_keys=True) \
        == json.dumps(result_to_dict(sanitized), sort_keys=True)


# ----------------------------------------------------------------------
# Injected corruption: each violation class must be detected
# ----------------------------------------------------------------------
def test_detects_time_accounting_drift():
    scenario, _result = small_run()
    scenario.manager.cores[0].stats.busy_ns += 1
    violations = Sanitizer().finish_run(scenario)
    assert "time-accounting" in checks_of(violations)
    assert any("lifetime" in v.message for v in violations)


def test_detects_float_typed_time_counter():
    scenario, _result = small_run()
    stats = scenario.manager.cores[0].stats
    stats.idle_ns = float(stats.idle_ns)
    violations = Sanitizer().finish_run(scenario)
    assert any(v.check == "time-accounting" and "not int" in v.message
               for v in violations)


def test_detects_packet_conservation_break():
    scenario, _result = small_run()
    scenario.generator.specs[0].flow.stats.offered += 1
    violations = Sanitizer().finish_run(scenario)
    assert "packet-conservation" in checks_of(violations)


def test_detects_ring_flow_identity_break():
    scenario, _result = small_run()
    scenario.manager.nfs[0].rx_ring.enqueued_total += 1
    violations = Sanitizer().finish_run(scenario)
    assert "ring-occupancy" in checks_of(violations)


def test_detects_drop_reason_sum_mismatch():
    scenario, _result = small_run()
    ring = scenario.manager.nfs[0].rx_ring
    ring.dropped_total += 1
    violations = Sanitizer().finish_run(scenario)
    assert any(v.check == "ring-occupancy"
               and "drops_by_reason" in v.message for v in violations)


def test_detects_negative_counter():
    scenario, _result = small_run()
    scenario.manager.nfs[0].processed_packets = -3
    violations = Sanitizer().finish_run(scenario)
    assert any(v.check == "non-negative" and "underflowed" in v.message
               for v in violations)


def test_detects_vruntime_regression():
    scenario, _result = small_run()
    sanitizer = Sanitizer()
    sanitizer.attach(scenario)
    sanitizer._min_vruntime_seen[("", 0)] = float("inf")
    violations = sanitizer.finish_run(scenario)
    assert "vruntime-monotonic" in checks_of(violations)


def test_detects_capacity_bound_violation():
    scenario, _result = small_run()
    scenario.manager.nfs[0].rx_ring.capacity = -1
    violations = Sanitizer().finish_run(scenario)
    assert any(v.check == "ring-occupancy" and "outside" in v.message
               for v in violations)


def _plant(ring, seg):
    """Queue ``seg`` in ``ring`` behind the ring's back (depth kept)."""
    ring._segments.append(seg)
    ring._count += seg.count


def test_detects_aliased_descriptor():
    """Rings hand descriptors over by reference, so one segment object
    queued in two rings would count its packets twice."""
    from repro.platform.packet import PacketSegment

    scenario, _result = small_run()
    nf0, nf1 = scenario.manager.nfs
    seg = PacketSegment(scenario.generator.specs[0].flow, 3, 10)
    _plant(nf0.rx_ring, seg)
    _plant(nf1.rx_ring, seg)
    violations = [v for v in Sanitizer().finish_run(scenario)
                  if v.check == "ring-ownership"]
    assert [(v.subject, "also queued in ring:nf0.rx" in v.message)
            for v in violations] == [("ring:nf1.rx", True)]


def test_detects_aliased_descriptor_on_tick():
    from repro.platform.packet import PacketSegment

    scenario, _result = small_run()
    seg = PacketSegment(scenario.generator.specs[0].flow, 2, 10)
    ring = scenario.manager.nfs[1].tx_ring
    _plant(ring, seg)
    _plant(ring, seg)
    sanitizer = Sanitizer(per_tick=True)
    sanitizer.attach(scenario)
    sanitizer._tick()
    assert any(v.check == "ring-ownership" and v.subject == "ring:nf1.tx"
               for v in sanitizer._run_violations)


def test_detects_descriptor_count_mismatch():
    from repro.platform.packet import PacketSegment

    scenario, _result = small_run()
    ring = scenario.manager.nfs[0].rx_ring
    seg = PacketSegment(scenario.generator.specs[0].flow, 4, 10)
    _plant(ring, seg)
    seg.count = 0                 # depth now exceeds the segments' sum
    messages = [v.message for v in Sanitizer().finish_run(scenario)
                if v.check == "ring-ownership"]
    assert any("not positive" in m for m in messages)
    assert any("sum of segment counts" in m for m in messages)


# ----------------------------------------------------------------------
# Multi-host scenarios: every check walks all hosts and the fabric
# ----------------------------------------------------------------------
def cluster_run(duration_s=0.02):
    from repro.cluster import ClusterScenario

    scenario = ClusterScenario(
        n_hosts=2, scheduler="NORMAL", features="NFVnice", seed=5)
    scenario.add_slo_class("gold", 500.0)
    scenario.set_chain("svc", (120.0, 270.0), slo_us=500.0,
                       placements=((0, 0), (1, 0)))
    scenario.add_flow("f0", rate_pps=100_000.0, slo_class="gold")
    scenario.add_flow("f1", rate_pps=100_000.0, slo_class="gold")
    result = scenario.run(duration_s)
    return scenario, result


def test_cluster_clean_run_reports_zero_violations():
    sanitizer = Sanitizer(per_tick=True)
    with RunContext(sanitizer=sanitizer):
        _scenario, result = cluster_run()
    assert result.sanitizer_violations == []
    assert sanitizer.violations == []


def test_cluster_violations_name_the_host():
    scenario, _result = cluster_run()
    host = scenario.topology.hosts[1]
    host.manager.nfs[0].rx_ring.enqueued_total += 1
    violations = Sanitizer().finish_run(scenario)
    subjects = {v.subject for v in violations
                if v.check == "ring-occupancy"}
    assert subjects and all(s.startswith("ring:h1.") for s in subjects)


def test_cluster_conservation_includes_fabric_in_flight():
    scenario, _result = cluster_run()
    # Pretend a packet evaporated off a fabric link: conservation breaks.
    scenario.topology.links[0].in_flight += 1
    violations = Sanitizer().finish_run(scenario)
    assert "packet-conservation" in checks_of(violations)


def test_migrate_across_core_fail_is_sanitizer_clean():
    """Orchestrated migration onto a core a fault plan then kills: the
    warm restart must leave every invariant intact on all hosts."""
    from repro.faults.plan import FaultPlan, FaultSpec

    sanitizer = Sanitizer(per_tick=True)
    with RunContext(sanitizer=sanitizer):
        scenario = Scenario(scheduler="NORMAL", features="NFVnice", seed=7)
        scenario.add_nf("nf0", 120, core=0)
        scenario.add_nf("nf1", 270, core=0)
        scenario.add_chain("chain0", ["nf0", "nf1"])
        scenario.add_flow("flow0", "chain0", rate_pps=50_000.0)
        scenario.attach_faults(FaultPlan(
            specs=[FaultSpec(kind="core_fail", target="2", at_s=0.010)],
            policy="restart-warm", detection_period_s=0.002,
            restart_delay_s=0.001))
        mgr = scenario.manager
        nf1 = mgr.nf_by_name("nf1")
        mgr.loop.call_at(5_000_000, lambda: mgr.migrate_nf(nf1, 2))
        result = scenario.run(0.05)
    assert result.sanitizer_violations == []
    assert not nf1.failed
    assert nf1.core is not None and not nf1.core.failed


# ----------------------------------------------------------------------
# Serialisation
# ----------------------------------------------------------------------
def test_violation_dict_roundtrip():
    v = SanitizerViolation("time-accounting", "core:0", "off by one", 123)
    assert SanitizerViolation.from_dict(v.to_dict()) == v
    assert "core:0" in v.render() and "t=123ns" in v.render()


def test_result_export_roundtrip_carries_violations():
    scenario, result = small_run()
    scenario.manager.cores[0].stats.busy_ns += 1
    result.sanitizer_violations = Sanitizer().finish_run(scenario)
    assert result.sanitizer_violations
    back = result_from_dict(result_to_dict(result))
    assert back.sanitizer_violations == result.sanitizer_violations


def test_sanitizer_accumulates_across_runs():
    sanitizer = Sanitizer()
    with RunContext(sanitizer=sanitizer):
        _s1, r1 = small_run(seed=1)
        _s2, r2 = small_run(seed=2)
    assert sanitizer.runs == 2
    assert r1.sanitizer_violations == [] and r2.sanitizer_violations == []
