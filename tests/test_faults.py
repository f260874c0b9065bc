"""The fault-injection subsystem: plans, mechanics, detection, recovery.

Three layers under test, matching the subsystem's division of labour:

* :mod:`repro.faults.plan` — pure data, validated and serialisable;
* :class:`repro.faults.watchdog.Watchdog` — symptom-only detection,
  exercised against hand-built NFs with explicit tick times;
* the end-to-end injector + policy pipeline — small Scenario runs that
  break an NF mid-run and assert on the resulting incident log.
"""

from __future__ import annotations

import pytest

from repro.check.sanitizer import Sanitizer
from repro.experiments import chaos_recovery
from repro.experiments.common import (
    RunContext,
    Scenario,
    build_linear_chain,
    current_run_context,
)
from repro.faults.injector import FaultInjector
from repro.faults.metrics import availability, latency_stats, throughput_dip
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.recovery import RECOVERY_POLICIES, RestartPolicy, make_policy
from repro.faults.watchdog import Watchdog
from repro.nfs.cost_models import FixedCost, ScaledCost
from repro.platform.packet import Flow
from repro.sched import Core, make_scheduler
from repro.sim.clock import MSEC, SEC

# ---------------------------------------------------------------------------
# Plan validation and serialisation
# ---------------------------------------------------------------------------


class TestFaultSpec:
    def test_round_trip(self):
        spec = FaultSpec(kind="slowdown", target="nf2", at_s=0.5,
                         duration_s=0.1, factor=8.0)
        again = FaultSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_to_dict_prunes_defaults(self):
        d = FaultSpec(kind="crash", target="nf1", at_s=0.1).to_dict()
        assert d == {"kind": "crash", "target": "nf1", "at_s": 0.1}

    def test_factor_kept_only_for_slowdown(self):
        assert "factor" in FaultSpec(kind="slowdown", target="x",
                                     at_s=0.0).to_dict()
        assert "factor" not in FaultSpec(kind="hang", target="x",
                                         at_s=0.0).to_dict()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor", target="nf1", at_s=0.1)

    def test_exactly_one_onset_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            FaultSpec(kind="hang", target="nf1")
        with pytest.raises(ValueError, match="exactly one"):
            FaultSpec(kind="hang", target="nf1", at_s=0.1, rate_per_s=2.0)

    def test_permanent_kinds_cannot_self_heal(self):
        for kind in ("crash", "core_fail"):
            with pytest.raises(ValueError, match="cannot self-heal"):
                FaultSpec(kind=kind, target="0", at_s=0.1, duration_s=0.05)
        # Transient kinds accept a duration.
        FaultSpec(kind="hang", target="nf1", at_s=0.1, duration_s=0.05)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="hang", target="n", at_s=-1.0)
        with pytest.raises(ValueError):
            FaultSpec(kind="hang", target="n", rate_per_s=0.0)
        with pytest.raises(ValueError):
            FaultSpec(kind="hang", target="n", rate_per_s=1.0, count=0)
        with pytest.raises(ValueError):
            FaultSpec(kind="slowdown", target="n", at_s=0.1, factor=0.0)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown FaultSpec field"):
            FaultSpec.from_dict({"kind": "hang", "target": "n",
                                 "at_s": 0.1, "blast_radius": 3})

    def test_target_coerced_to_str(self):
        assert FaultSpec(kind="core_fail", target=0, at_s=0.1).target == "0"


#: Plans that must fail at load with a ValueError naming the field, as
#: ``(JSON text, field)``; shared with the CLI tests.
HOSTILE_PLANS = [
    ('{"specs": [{"kind": "crash", "target": "nf2", "at_s": NaN}]}',
     "at_s"),
    ('{"specs": [{"kind": "crash", "target": "nf2", "at_s": 1e300}]}',
     "at_s"),
    ('{"detection_period_s": NaN}', "detection_period_s"),
    ('{"specs": [{"kind": "hang", "target": "nf2", "at_s": 0.01, '
     '"duration_s": Infinity}]}', "duration_s"),
    ('{"restart_delay_s": Infinity}', "restart_delay_s"),
    ('{"specs": [{"kind": "slowdown", "target": "nf2", "at_s": 0.01, '
     '"factor": NaN}]}', "factor"),
    ('{"specs": [{"kind": "hang", "target": "nf2", '
     '"rate_per_s": Infinity}]}', "rate_per_s"),
    ('{"specs": [{"kind": "hang", "target": "nf2", '
     '"rate_per_s": 1e-300}]}', "rate_per_s"),
    ('{"specs": [{"kind": "hang", "target": "nf2", "rate_per_s": 5.0, '
     '"count": 2.5}]}', "count"),
    ('{"policy": "bogus"}', "policy"),
    ('{"specs": [{"kind": "crash", "at_s": 0.01}]}', "target"),
    ('[1, 2]', "fault plan must be a JSON object"),
    ('{"specs": {"kind": "crash"}}', "specs must be a list"),
]
HOSTILE_PLAN_IDS = ["nan-at", "huge-at", "nan-detection", "inf-duration",
                    "inf-restart-delay", "nan-factor", "inf-rate",
                    "tiny-rate", "fractional-count", "bogus-policy",
                    "no-target", "top-level-list", "specs-not-list"]


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            specs=[FaultSpec(kind="crash", target="nf2", at_s=0.3),
                   FaultSpec(kind="slowdown", target="nf1",
                             rate_per_s=5.0, count=3, factor=2.0)],
            policy="restart-cold",
            detection_period_s=0.004,
            restart_delay_s=0.002,
        )
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(detection_period_s=0.0)
        with pytest.raises(ValueError):
            FaultPlan(restart_delay_s=-1e-3)
        with pytest.raises(ValueError, match="unknown FaultPlan field"):
            FaultPlan.from_dict({"specs": [], "blast": True})

    def test_from_file_json(self, tmp_path):
        path = tmp_path / "plan.json"
        plan = FaultPlan(specs=[FaultSpec(kind="hang", target="nf1",
                                          at_s=0.2)])
        path.write_text(plan.to_json())
        assert FaultPlan.from_file(str(path)) == plan

    @pytest.mark.parametrize("text,field", HOSTILE_PLANS,
                             ids=HOSTILE_PLAN_IDS)
    def test_hostile_plan_rejected_at_load(self, text, field):
        with pytest.raises(ValueError, match=field):
            FaultPlan.from_json(text)

    def test_active_plan_lifecycle(self):
        assert current_run_context() is None
        plan = FaultPlan()
        with RunContext(fault_plan=plan) as ctx:
            assert current_run_context() is ctx
            assert ctx.fault_plan is plan
            with pytest.raises(RuntimeError, match="already active"):
                with RunContext():
                    pass
            assert current_run_context() is ctx
        assert current_run_context() is None

    def test_unknown_policy_name_rejected(self):
        with pytest.raises(ValueError, match="unknown recovery policy"):
            make_policy("reboot-the-universe")

    def test_policy_registry_names_match_instances(self):
        for name, factory in RECOVERY_POLICIES.items():
            assert make_policy(name).name == name
        custom = RestartPolicy(mode="cold", restart_delay_s=0.5)
        assert make_policy(custom) is custom


# ---------------------------------------------------------------------------
# Watchdog: symptom-only detection with explicit tick times
# ---------------------------------------------------------------------------

DETECT_NS = 2 * MSEC


@pytest.fixture
def wd_rig(loop, config):
    core = Core(loop, make_scheduler("BATCH"))
    from repro.core.nf import NFProcess

    nf = NFProcess("nf", FixedCost(260), config=config)
    core.add_task(nf)
    suspects = []
    wd = Watchdog(loop, DETECT_NS,
                  on_suspect=lambda n, t: suspects.append((n.name, t)))
    wd.register(nf)
    return nf, wd, suspects


class TestWatchdog:
    def test_stuck_nf_with_backlog_is_suspected(self, wd_rig):
        nf, wd, suspects = wd_rig
        nf.rx_ring.enqueue(Flow("f"), 10, 0)
        wd.tick(0)                    # first sighting: clock starts
        wd.tick(MSEC)                 # stale 1 ms: below threshold
        assert suspects == []
        wd.tick(2 * MSEC)             # stale 2 ms: flagged
        assert suspects == [("nf", 2 * MSEC)]
        assert wd.detections == 1

    def test_suspected_nf_not_reflagged(self, wd_rig):
        nf, wd, suspects = wd_rig
        nf.rx_ring.enqueue(Flow("f"), 10, 0)
        for t in (0, 2 * MSEC, 4 * MSEC, 6 * MSEC):
            wd.tick(t)
        assert len(suspects) == 1

    def test_idle_nf_never_suspected(self, wd_rig):
        nf, wd, suspects = wd_rig
        for t in range(0, 20 * MSEC, MSEC):
            wd.tick(t)
        assert suspects == []

    def test_drain_progress_resets_clock(self, wd_rig):
        nf, wd, suspects = wd_rig
        nf.rx_ring.enqueue(Flow("f"), 10, 0)
        wd.tick(0)
        nf.rx_ring.dequeue(3)         # the queue moved: alive
        wd.tick(MSEC)
        wd.tick(2 * MSEC)             # only 1 ms stale since progress
        assert suspects == []
        wd.tick(3 * MSEC)
        assert suspects != []

    def test_relinquish_excuses_stall(self, wd_rig):
        nf, wd, suspects = wd_rig
        nf.rx_ring.enqueue(Flow("f"), 10, 0)
        nf.relinquish = True          # backpressure parked it on purpose
        for t in range(0, 20 * MSEC, MSEC):
            wd.tick(t)
        assert suspects == []

    def test_full_tx_ring_excuses_stall(self, wd_rig, config):
        nf, wd, suspects = wd_rig
        nf.rx_ring.enqueue(Flow("f"), 10, 0)
        nf.tx_ring.enqueue(Flow("g"), config.ring_capacity, 0)
        for t in range(0, 20 * MSEC, MSEC):
            wd.tick(t)
        assert suspects == []

    def test_dead_ring_shedding_counts_as_demand(self, wd_rig):
        """A crashed NF's ring is empty (arrivals shed as nf_dead), but
        offered_arrivals keeps rising — that must still read as demand."""
        nf, wd, suspects = wd_rig
        nf.failed = True
        nf.rx_ring.dead = True
        wd.tick(0)
        for t in range(1, 5):
            nf.rx_ring.enqueue(Flow("f"), 5, t * MSEC)   # all shed
            wd.tick(t * MSEC)
        assert len(nf.rx_ring) == 0
        assert suspects != []

    def test_forget_clears_suspicion_and_clock(self, wd_rig):
        nf, wd, suspects = wd_rig
        nf.rx_ring.enqueue(Flow("f"), 10, 0)
        wd.tick(0)
        wd.tick(2 * MSEC)
        assert "nf" in wd.suspected
        wd.forget(nf)
        assert "nf" not in wd.suspected
        # The liveness clock restarted: it takes a fresh stale window.
        wd.tick(3 * MSEC)
        wd.tick(4 * MSEC)
        assert len(suspects) == 1
        wd.tick(5 * MSEC)
        assert len(suspects) == 2

    def test_remove_drops_from_roster(self, wd_rig):
        nf, wd, suspects = wd_rig
        nf.rx_ring.enqueue(Flow("f"), 10, 0)
        wd.remove(nf)
        for t in range(0, 10 * MSEC, MSEC):
            wd.tick(t)
        assert suspects == []

    def test_invalid_period_rejected(self, loop):
        with pytest.raises(ValueError):
            Watchdog(loop, 0)


# ---------------------------------------------------------------------------
# End-to-end: inject -> detect -> recover on a live Scenario
# ---------------------------------------------------------------------------

FAULT_AT_S = 0.04
DETECTION_MS = 2.0


def chaos_case(kind, policy, duration_s=0.12, detection_ms=DETECTION_MS,
               fault_at_s=FAULT_AT_S, target="nf2", fault_duration_s=None,
               factor=4.0, seed=0, features="NFVnice"):
    scenario = Scenario(scheduler="NORMAL", features=features, seed=seed)
    build_linear_chain(scenario, (120.0, 270.0, 550.0), core=0)
    scenario.add_flow("flow", "chain", line_rate_fraction=0.4)
    plan = FaultPlan(
        specs=[FaultSpec(kind=kind, target=target, at_s=fault_at_s,
                         duration_s=fault_duration_s, factor=factor)],
        policy=policy,
        detection_period_s=detection_ms / 1e3,
        restart_delay_s=1e-3,
    )
    scenario.attach_faults(plan)
    result = scenario.run(duration_s)
    return scenario, result


class TestCrashRecovery:
    def test_crash_detect_warm_restart(self):
        # Backpressure off ("CGroup"): with the full NFVnice feature set
        # the upstream NF is parked the moment the victim's ring backs
        # up, so nothing ever reaches the dead ring — shedding must be
        # observed without that shield in the way.
        scenario, result = chaos_case("crash", "restart-warm",
                                      features="CGroup")
        r = result.resilience
        assert r["injected"] == r["detected"] == r["recovered"] == 1
        assert r["restarts"] == 1
        assert result.nf("nf2").restarts == 1
        inc = r["incidents"][0]
        # Detection cannot beat the staleness threshold, and the 1 ms
        # monitor tick bounds how far past it the flag can land.
        lat = inc["detected_ns"] - inc["injected_ns"]
        assert DETECTION_MS * MSEC <= lat <= DETECTION_MS * MSEC + 2 * MSEC
        # Recovery = the plan's restart delay.
        assert inc["recovered_ns"] - inc["detected_ns"] == MSEC
        # Crash sheds arrivals at the dead ring while the outage runs.
        assert result.nf("nf2").rx_drops_by_reason.get("nf_dead", 0) > 0
        assert 0.9 < r["availability"] < 1.0

    def test_warm_requeues_what_cold_loses(self):
        _, warm = chaos_case("crash", "restart-warm")
        _, cold = chaos_case("crash", "restart-cold")
        assert warm.resilience["packets_requeued"] > 0
        assert cold.resilience["packets_requeued"] == 0
        # Cold clears the ring on restart, so it must lose strictly more.
        assert cold.resilience["packets_lost"] > \
            warm.resilience["packets_lost"]
        # The post-restart service resumes either way.
        assert cold.nf("nf2").restarts == warm.nf("nf2").restarts == 1

    def test_cold_restart_cases_are_sanitizer_clean(self):
        # Every restart-cold cell of the chaos grid: the packets a cold
        # restart discards must leave the ring identity and end-to-end
        # packet conservation intact.
        cases = [c for c in chaos_recovery.campaign_cases(0.1)
                 if c.kwargs["policy"] == "restart-cold"]
        assert len(cases) == 6
        sanitizer = Sanitizer(per_tick=True)
        with RunContext(sanitizer=sanitizer):
            results = [chaos_recovery.run_case(**c.kwargs) for c in cases]
        assert sanitizer.violations == []
        purged = [r.nf("nf2").rx_drops_by_reason.get("purged", 0)
                  for r in results]
        assert any(purged)
        for n, result in zip(purged, results):
            assert n <= result.resilience["packets_lost"]

    @pytest.mark.parametrize("kind,target", [
        ("crash", "ghost"), ("core_fail", "7"), ("core_fail", "abc")])
    def test_unknown_target_raises_value_error(self, kind, target):
        with pytest.raises(ValueError, match=f"unknown target '{target}'"):
            chaos_case(kind, "restart-warm", target=target)

    def test_crash_loses_at_most_one_inflight_batch_when_warm(self):
        scenario, result = chaos_case("crash", "restart-warm")
        nf2 = scenario.manager.nf_by_name("nf2")
        assert 0 < result.resilience["packets_lost"] <= nf2.batch_size

    def test_backpressure_shield_discards_at_entry(self):
        scenario, shielded = chaos_case("crash", "restart-backpressure")
        # The shield throttles the chain at the system entry while the
        # restart is in flight: Figure 5's early discard, not ring loss.
        assert shielded.chain("chain").entry_discard_pps > 0
        # The shield lifts ring.dead so nothing is shed at the ring, and
        # whatever queued before the crash survives for the warm restart.
        assert shielded.nf("nf2").rx_drops_by_reason.get("nf_dead", 0) == 0
        assert shielded.resilience["recovered"] == 1

    def test_shield_lifted_after_recovery(self):
        scenario, result = chaos_case("crash", "restart-backpressure")
        assert result.resilience["recovered"] == 1
        assert not scenario.manager.chains["chain"].throttled

    def test_fail_chain_gives_up_permanently(self):
        scenario, result = chaos_case("crash", "fail-chain")
        r = result.resilience
        assert r["gave_up"] == 1
        assert r["recovered"] == 0
        assert r["restarts"] == 0
        assert scenario.manager.chains["chain"].throttled
        # The outage runs to the horizon: availability reflects one of
        # three NFs dead for the final two thirds of the run.
        assert r["availability"] < 0.85


class TestOtherFaultKinds:
    def test_hang_holds_ring_until_restart(self):
        scenario, result = chaos_case("hang", "restart-warm")
        r = result.resilience
        assert r["detected"] == r["recovered"] == 1
        # The wedged process kept its ring: everything queued during the
        # outage is requeued, nothing is lost to the fault itself.
        assert r["packets_requeued"] > 0
        assert r["packets_lost"] == 0

    def test_ring_stall_seals_and_restart_unseals(self):
        # Backpressure off, as in test_crash_detect_warm_restart: the
        # sealed-ring drops must not be masked by upstream throttling.
        scenario, result = chaos_case("ring_stall", "restart-warm",
                                      features="CGroup")
        nf2 = scenario.manager.nf_by_name("nf2")
        assert result.resilience["recovered"] == 1
        assert not nf2.rx_ring.sealed
        assert result.nf("nf2").rx_drops_by_reason.get("sealed", 0) > 0

    def test_slowdown_progresses_and_is_never_flagged(self):
        scenario, result = chaos_case("slowdown", "restart-warm",
                                      factor=6.0)
        r = result.resilience
        assert r["detected"] == 0
        assert r["false_alarms"] == 0
        assert r["availability"] == 1.0
        # Slow, not stuck: the NF keeps processing through the fault.
        assert result.nf("nf2").processed > 0

    def test_transient_hang_self_heals_before_detection(self):
        # 50 ms detection window, 5 ms hang: the watchdog never fires
        # and the injector's heal timer restores service.
        scenario, result = chaos_case("hang", "restart-warm",
                                      detection_ms=50.0,
                                      fault_duration_s=0.005)
        r = result.resilience
        assert r["healed"] == 1
        assert r["detected"] == 0
        assert r["restarts"] == 0
        inc = r["incidents"][0]
        assert inc["healed_ns"] - inc["injected_ns"] == 5 * MSEC
        # Service resumed: packets kept completing after the heal.
        assert result.chain("chain").completed > 0
        nf2 = scenario.manager.nf_by_name("nf2")
        assert not nf2.hung

    def test_permanent_slowdown_keeps_scaled_cost(self):
        scenario, _ = chaos_case("slowdown", "restart-warm", factor=6.0)
        # Nothing detects a slowdown and nothing heals a permanent one:
        # the scaled model stays in place to the horizon.
        nf2 = scenario.manager.nf_by_name("nf2")
        assert isinstance(nf2.cost_model, ScaledCost)

    def test_transient_slowdown_restores_cost_model(self):
        scenario, result = chaos_case("slowdown", "restart-warm",
                                      factor=6.0, fault_duration_s=0.02)
        assert result.resilience["healed"] == 1
        nf2 = scenario.manager.nf_by_name("nf2")
        assert not isinstance(nf2.cost_model, ScaledCost)

    def test_core_fail_takes_down_all_residents(self):
        scenario, result = chaos_case("core_fail", "restart-warm",
                                      target="0")
        r = result.resilience
        inc = r["incidents"][0]
        # All three NFs share core 0, so the incident is three wide.  The
        # two NFs with visible demand (queued backlog) are caught and
        # restarted; the entry NF sits behind the backpressure throttle
        # with an empty ring — indistinguishable from idle — and simply
        # resumes once the first restart repairs the core.
        assert inc["width"] == 3
        assert inc["recovered_ns"] is not None
        assert r["restarts"] == 2
        assert not scenario.manager.cores[0].failed
        # The chain serves again after the repair.
        assert result.chain("chain").completed > 0


class TestEmptyPlan:
    def test_no_faults_no_false_alarms(self):
        scenario = Scenario(scheduler="NORMAL", features="NFVnice", seed=0)
        build_linear_chain(scenario, (120.0, 270.0, 550.0), core=0)
        scenario.add_flow("flow", "chain", line_rate_fraction=0.4)
        scenario.attach_faults(FaultPlan())
        result = scenario.run(0.1)
        r = result.resilience
        assert r["injected"] == 0
        assert r["false_alarms"] == 0
        assert r["availability"] == 1.0


# ---------------------------------------------------------------------------
# Metrics helpers
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_latency_stats_empty(self):
        assert latency_stats([]) == {
            "count": 0, "mean_ns": 0.0, "min_ns": 0, "max_ns": 0}

    def test_latency_stats_values(self):
        s = latency_stats([MSEC, 3 * MSEC])
        assert s["count"] == 2
        assert s["mean_ns"] == pytest.approx(2 * MSEC)
        assert (s["min_ns"], s["max_ns"]) == (MSEC, 3 * MSEC)

    def test_availability_no_incidents(self):
        assert availability([], SEC, 3) == 1.0

    def test_throughput_dip_clean_recovery(self):
        # Steady 100 before the fault, a two-sample dip, then recovery.
        fault = 4 * MSEC + MSEC // 2
        samples = [(i * MSEC, 100.0) for i in range(5)]
        samples += [(5 * MSEC, 20.0), (6 * MSEC, 30.0)]
        samples += [(i * MSEC, 100.0) for i in range(7, 10)]
        dip = throughput_dip(samples, fault)
        assert dip["baseline"] == pytest.approx(100.0)
        assert dip["floor"] == pytest.approx(20.0)
        assert dip["depth_frac"] == pytest.approx(0.8)
        assert dip["recovered"]
        assert dip["width_ns"] == 7 * MSEC - fault

    def test_throughput_dip_never_recovers(self):
        fault = 4 * MSEC + MSEC // 2
        samples = [(i * MSEC, 100.0) for i in range(5)]
        samples += [(i * MSEC, 5.0) for i in range(5, 10)]
        dip = throughput_dip(samples, fault)
        assert not dip["recovered"]
        assert dip["width_ns"] == 9 * MSEC - fault

    def test_throughput_dip_no_dip(self):
        samples = [(i * MSEC, 50.0) for i in range(10)]
        dip = throughput_dip(samples, 5 * MSEC)
        assert dip["depth_frac"] == pytest.approx(0.0)
        assert dip["width_ns"] == 0


# ---------------------------------------------------------------------------
# Determinism: the subsystem is part of the reproducibility contract
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_same_plan_same_seed_identical_summary(self):
        from repro.analysis.export import result_to_dict
        from repro.runner.digest import digest_of

        digests = set()
        for _ in range(2):
            _, result = chaos_case("crash", "restart-warm")
            digests.add(digest_of(result_to_dict(result)))
        assert len(digests) == 1

    def test_stochastic_onsets_reproducible(self):
        def run_once():
            scenario = Scenario(scheduler="NORMAL", features="NFVnice",
                                seed=7)
            build_linear_chain(scenario, (120.0, 270.0), core=0)
            scenario.add_flow("flow", "chain", line_rate_fraction=0.3)
            plan = FaultPlan(
                specs=[FaultSpec(kind="hang", target="nf1",
                                 rate_per_s=20.0, count=2,
                                 duration_s=0.01)],
                detection_period_s=0.05,
            )
            scenario.attach_faults(plan)
            result = scenario.run(0.15)
            return [(i["kind"], i["injected_ns"], i["healed_ns"])
                    for i in result.resilience["incidents"]]

        first, second = run_once(), run_once()
        assert first == second
        assert len(first) >= 1

    def test_stochastic_onsets_require_rng(self, loop):
        from repro.platform.manager import NFManager

        mgr = NFManager(loop, scheduler="NORMAL")
        plan = FaultPlan(specs=[FaultSpec(kind="hang", target="nf1",
                                          rate_per_s=5.0)])
        mgr.attach_faults(plan, rng=None)
        injector = mgr.faults
        assert isinstance(injector, FaultInjector)
        with pytest.raises(RuntimeError, match="rng"):
            injector._schedule_onsets()

    def test_campaign_digest_invariant_across_worker_counts(self):
        """Satellite (d): identical FaultPlan + seed => identical campaign
        digest no matter how the cases are spread over workers."""
        from repro.runner.campaign import run_campaign

        serial = run_campaign(["chaos_recovery"], workers=1,
                              duration_s=0.03)
        twoway = run_campaign(["chaos_recovery"], workers=2,
                              duration_s=0.03)
        s = serial.experiments["chaos_recovery"]
        p = twoway.experiments["chaos_recovery"]
        assert s.ok and p.ok, s.failures + p.failures
        assert s.digest == p.digest
