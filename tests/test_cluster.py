"""Cluster layer: fabric links, flow steering, auto-scaling, scenarios.

The fabric tests pin the wire model's exact arithmetic (serialisation +
propagation, queue-cap drops, ECN marking); the steering tests pin the
balancer's determinism contract (least-load binding with a seeded,
hash-seed-independent tie-break, permanent bindings); the autoscaler
tests drive the control loop with synthetic ring pressure so each
hysteresis decision is checked against exact inputs; the scenario tests
run small end-to-end clusters and check conservation, determinism and
the digest-covered ``resilience["cluster"]`` block.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.export import result_to_dict
from repro.experiments import cluster_scaling
from repro.cluster import (
    Autoscaler,
    ChainTemplate,
    ClusterScenario,
    ClusterTopology,
    FabricLink,
    FlowSteerer,
)
from repro.core.nf import NFProcess
from repro.nfs.cost_models import FixedCost
from repro.obs.export import render_prometheus
from repro.obs.registry import MetricsRegistry
from repro.obs.session import ObsSession
from repro.platform.manager import NFManager
from repro.platform.nic import WIRE_OVERHEAD_BYTES
from repro.platform.packet import Flow
from repro.platform.rx import RxThread
from repro.platform.tx import TxThread
from repro.platform.wakeup import WakeupSubsystem
from repro.runner.digest import digest_of
from repro.sim.clock import MSEC, SEC, USEC


# ----------------------------------------------------------------------
# FabricLink: the wire model
# ----------------------------------------------------------------------
class TestFabricLink:
    def make_link(self, loop, **kwargs):
        delivered = []

        def deliver(flow, count, origin_ns):
            delivered.append((flow.flow_id, count, origin_ns, loop.now))

        link = FabricLink(loop, "ingress->h0", deliver, **kwargs)
        return link, delivered

    def test_delivery_after_serialisation_and_latency(self, loop):
        link, delivered = self.make_link(
            loop, latency_ns=10 * USEC, link_bps=10e9)
        flow = Flow("f0", pkt_size=64)
        assert link.send(flow, 100, 0) == 100
        assert link.in_flight == 100
        loop.run_until(SEC)
        wire_bits = 100 * (64 + WIRE_OVERHEAD_BYTES) * 8
        expected = int(wire_bits * SEC / 10e9 + 10 * USEC)
        assert delivered == [("f0", 100, 0, expected)]
        assert link.in_flight == 0
        assert link.carried_packets == 100
        assert link.carried_bytes == 100 * 64

    def test_back_to_back_sends_queue_behind_busy_wire(self, loop):
        link, delivered = self.make_link(loop, latency_ns=0, link_bps=10e9)
        flow = Flow("f0", pkt_size=64)
        link.send(flow, 100, 0)
        link.send(flow, 100, 0)
        loop.run_until(SEC)
        per_batch = 100 * (64 + WIRE_OVERHEAD_BYTES) * 8 * SEC / 10e9
        assert delivered[0][3] == int(per_batch)
        assert delivered[1][3] == int(2 * per_batch)

    def test_origin_ns_rides_through_to_delivery(self, loop):
        link, delivered = self.make_link(loop)
        link.send(Flow("f0"), 5, 1000, origin_ns=42)
        loop.run_until(SEC)
        assert delivered[0][2] == 42

    def test_queue_cap_partial_accept_charges_queue_drops(self, loop):
        link, delivered = self.make_link(loop, queue_cap_pkts=150)
        flow = Flow("f0")
        assert link.send(flow, 100, 0) == 100
        assert link.send(flow, 100, 0) == 50       # 50 over the cap
        assert flow.stats.queue_drops == 50
        assert link.dropped_packets == 50
        assert link.send(flow, 10, 0) == 0          # wire saturated
        assert flow.stats.queue_drops == 60
        loop.run_until(SEC)
        assert sum(d[1] for d in delivered) == 150
        assert link.in_flight == 0

    def test_ecn_marks_responsive_flows_above_threshold(self, loop):
        link, _ = self.make_link(loop, ecn_mark_pkts=50)
        tcp = Flow("t0", protocol="tcp")
        udp = Flow("u0", protocol="udp")
        link.send(udp, 100, 0)                      # over threshold, deaf
        assert udp.stats.ecn_marks == 0
        link.send(tcp, 100, 0)
        assert tcp.stats.ecn_marks == 100
        assert link.ecn_marked == 100

    def test_counters_snapshot_is_json_safe(self, loop):
        link, _ = self.make_link(loop)
        link.send(Flow("f0"), 10, 0)
        snap = link.counters()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["carried_packets"] == 10 and snap["in_flight"] == 10

    def test_rejects_bad_thresholds(self, loop):
        with pytest.raises(ValueError, match="queue_cap_pkts"):
            FabricLink(loop, "l", lambda f, c, o: None, queue_cap_pkts=0)
        with pytest.raises(ValueError, match="ecn_mark_pkts"):
            FabricLink(loop, "l", lambda f, c, o: None, ecn_mark_pkts=-1)


# ----------------------------------------------------------------------
# Steering
# ----------------------------------------------------------------------
def small_cluster(loop, n_hosts=2):
    topology = ClusterTopology(loop, n_hosts)
    steerer = FlowSteerer(seed=0)
    template = ChainTemplate("svc", (100.0, 200.0), slo_us=500.0)
    return topology, steerer, template


def add_replica(topology, steerer, template, host_idx, replica, core_id=0):
    host = topology.hosts[host_idx]
    chain = template.instantiate(host, replica, core_id)
    return steerer.add_placement(
        host, chain, topology.ingress_links[host.name])


class TestFlowSteerer:
    def test_binds_to_least_loaded_placement(self, loop):
        topology, steerer, template = small_cluster(loop)
        add_replica(topology, steerer, template, 0, 0)
        add_replica(topology, steerer, template, 1, 1)
        steerer.register_flow_rate("heavy", 1_000_000)
        steerer.register_flow_rate("light", 10_000)
        p_heavy = steerer.placement_of(Flow("heavy"))
        p_light = steerer.placement_of(Flow("light"))
        # Second bind sees the first flow's megapps and avoids it.
        assert p_heavy is not p_light

    def test_binding_is_permanent(self, loop):
        topology, steerer, template = small_cluster(loop)
        add_replica(topology, steerer, template, 0, 0)
        add_replica(topology, steerer, template, 1, 1)
        flow = Flow("f0")
        first = steerer.placement_of(flow)
        steerer.retire_placement(first)
        # Even retired, the bound flow keeps resolving to its placement.
        assert steerer.placement_of(flow) is first
        assert first not in steerer.active_placements()

    def test_bind_installs_flow_on_host_manager(self, loop):
        topology, steerer, template = small_cluster(loop)
        placement = add_replica(topology, steerer, template, 0, 0)
        flow = Flow("f0")
        steerer.placement_of(flow)
        assert flow.chain is placement.chain
        looked = placement.host.manager.flow_table.lookup(flow)
        assert looked is placement.chain

    def test_tiebreak_is_insertion_order_independent(self, loop):
        """Equal-load candidates: the seeded hash picks, not list order."""
        choices = []
        for order in ((0, 1), (1, 0)):
            topology, steerer, _template = small_cluster(loop)
            # Placement ids depend only on the host, so both permutations
            # offer the same candidate *set* in a different list order.
            for host_idx in order:
                template_h = ChainTemplate(f"svc{host_idx}", (100.0,))
                add_replica(topology, steerer, template_h, host_idx, 0)
            choices.append(
                steerer.placement_of(Flow("f0")).placement_id)
        assert choices[0] == choices[1]

    def test_retired_placement_gets_no_new_flows(self, loop):
        topology, steerer, template = small_cluster(loop)
        p0 = add_replica(topology, steerer, template, 0, 0)
        p1 = add_replica(topology, steerer, template, 1, 1)
        steerer.retire_placement(p0)
        for i in range(4):
            assert steerer.placement_of(Flow(f"f{i}")) is p1
        assert steerer.binds_per_placement() == {
            p0.placement_id: 0, p1.placement_id: 4}

    def test_duplicate_placement_rejected(self, loop):
        topology, steerer, template = small_cluster(loop)
        add_replica(topology, steerer, template, 0, 0)
        host = topology.hosts[1]
        chain = template.instantiate(host, 1, 0)
        chain.name = f"{template.name}~r0@h0"   # collide on purpose
        with pytest.raises(ValueError, match="duplicate placement"):
            steerer.add_placement(
                host, chain, topology.ingress_links[host.name])

    def test_no_active_placements_is_an_error(self, loop):
        _topology, steerer, _template = small_cluster(loop)
        with pytest.raises(RuntimeError, match="no active placements"):
            steerer.placement_of(Flow("f0"))


# ----------------------------------------------------------------------
# ChainTemplate
# ----------------------------------------------------------------------
class TestChainTemplate:
    def test_instantiate_names_are_cluster_unique(self, loop):
        topology, _steerer, template = small_cluster(loop)
        c0 = template.instantiate(topology.hosts[0], 0, 0)
        c1 = template.instantiate(topology.hosts[1], 1, 0)
        assert c0.name == "svc~r0@h0" and c1.name == "svc~r1@h1"
        assert [nf.name for nf in c0.nfs] == ["svc~r0.nf1@h0",
                                              "svc~r0.nf2@h0"]
        assert all(nf.core.core_id == 0 for nf in c0.nfs)

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 1 NF cost"):
            ChainTemplate("svc", ())
        with pytest.raises(ValueError, match="SLO budget"):
            ChainTemplate("svc", (100.0,), slo_us=0.0)


# ----------------------------------------------------------------------
# Autoscaler control loop (synthetic ring pressure, manual ticks)
# ----------------------------------------------------------------------
def make_autoscaler(loop, n_hosts=2, **kwargs):
    """An autoscaler over an unstarted cluster: no Monitor, so the
    evaluation falls back to raw ring occupancy — which the test sets
    directly by enqueuing packets."""
    topology, steerer, template = small_cluster(loop, n_hosts)
    kwargs.setdefault("up_after", 2)
    kwargs.setdefault("down_after", 3)
    kwargs.setdefault("cooldown_ns", 0)
    slots = kwargs.pop("slots", [(h, c) for h in range(n_hosts)
                                 for c in (0, 1) if (h, c) != (0, 0)])
    scaler = Autoscaler(topology, steerer, template, slots, **kwargs)
    scaler.add_initial_placement(0, 0)
    return topology, steerer, scaler


def pressure(placement, fraction=0.5):
    """Back up a placement's first ring past the occupancy trigger."""
    nf = placement.chain.nfs[0]
    nf.rx_ring.enqueue(Flow("junk"), int(nf.rx_ring.capacity * fraction), 0)


class TestAutoscaler:
    def test_scale_out_needs_sustained_pressure(self, loop):
        _topology, steerer, scaler = make_autoscaler(loop)
        pressure(steerer.placements[0])
        scaler._tick()
        assert scaler.scale_outs == 0           # streak of 1 < up_after
        scaler._tick()
        assert scaler.scale_outs == 1
        assert len(steerer.active_placements()) == 2
        event = scaler.events[0]
        assert event["kind"] == "scale_out" and event["host"] == "h1"

    def test_interrupted_streak_resets(self, loop):
        _topology, steerer, scaler = make_autoscaler(loop)
        placement = steerer.placements[0]
        pressure(placement)
        scaler._tick()
        placement.chain.nfs[0].rx_ring.purge()  # pressure vanishes
        scaler._tick()
        pressure(placement)
        scaler._tick()
        assert scaler.scale_outs == 0           # never 2 in a row

    def test_one_calm_replica_blocks_scale_out(self, loop):
        """One replica struggling is a balancing problem, not capacity."""
        # down_after is large so the calm replica is not drained first
        # (without a Monitor, demand reads 0.0 and idles accumulate).
        _topology, steerer, scaler = make_autoscaler(loop, down_after=50)
        scaler._scale_out(0)                    # second replica, calm
        pressure(steerer.placements[0])
        scaler.scale_outs = 0
        scaler.events.clear()
        for _ in range(5):
            scaler._tick()
        assert scaler.scale_outs == 0

    def test_cooldown_spaces_scale_outs(self, loop):
        _topology, steerer, scaler = make_autoscaler(
            loop, n_hosts=3, cooldown_ns=10 * MSEC)
        for p in steerer.placements:
            pressure(p)
        scaler._tick()
        scaler._tick()                          # fires at t=0
        assert scaler.scale_outs == 1
        for p in steerer.active_placements():
            pressure(p)
        scaler._tick()
        scaler._tick()                          # still inside cooldown
        assert scaler.scale_outs == 1
        loop.run_until(11 * MSEC)
        for p in steerer.active_placements():
            pressure(p)
        scaler._tick()
        scaler._tick()
        assert scaler.scale_outs == 2

    def test_new_replica_lands_on_least_crowded_host(self, loop):
        _topology, steerer, scaler = make_autoscaler(loop, n_hosts=2)
        scaler._scale_out(0)
        assert scaler.events[-1]["host"] == "h1"    # h0 had the seed
        scaler._scale_out(0)
        assert scaler.events[-1]["host"] == "h0"    # both at 1: slot order
        scaler._scale_out(0)
        assert scaler.events[-1]["host"] == "h1"

    def test_slot_exhaustion_is_graceful(self, loop):
        _topology, steerer, scaler = make_autoscaler(
            loop, slots=[(1, 0)])
        for p in steerer.placements:
            pressure(p)
        scaler._tick(), scaler._tick()
        assert scaler.scale_outs == 1
        for p in steerer.active_placements():
            pressure(p)
        for _ in range(4):
            scaler._tick()                      # no free slot left
        assert scaler.scale_outs == 1

    def test_scale_in_drains_newest_idle_but_never_last(self, loop):
        _topology, steerer, scaler = make_autoscaler(loop, down_after=3)
        scaler._scale_out(0)
        newest = steerer.placements[-1]
        for _ in range(3):
            scaler._tick()                      # everyone idle
        assert scaler.scale_ins == 1
        assert not newest.active
        for _ in range(10):
            scaler._tick()
        assert scaler.scale_ins == 1            # sole survivor is immune
        assert len(steerer.active_placements()) == 1

    def test_summary_shape(self, loop):
        _topology, _steerer, scaler = make_autoscaler(loop)
        scaler._tick()
        summary = scaler.summary()
        assert summary == {"evaluations": 1, "scale_outs": 0,
                           "scale_ins": 0, "replicas": 1, "events": []}

    def test_bad_knobs_rejected(self, loop):
        topology, steerer, template = small_cluster(loop)
        with pytest.raises(ValueError, match="up_after"):
            Autoscaler(topology, steerer, template, [], up_after=0)
        with pytest.raises(ValueError, match="outside the cluster"):
            Autoscaler(topology, steerer, template, [(7, 0)])

    @pytest.mark.parametrize("slot,match", [
        ((-1, 0), r"slots\[1\]: host -1 outside the cluster"),
        ((2, 0), r"slots\[1\]: host 2 outside the cluster"),
        ((1, -3), r"slots\[1\]: core -3 outside 0\.\.99"),
        ((1, 100), r"slots\[1\]: core 100 outside 0\.\.99"),
        ((1,), r"slots\[1\]: expected a \(host, core\) pair"),
    ])
    def test_bad_slots_name_the_entry(self, loop, slot, match):
        topology, steerer, template = small_cluster(loop)
        with pytest.raises(ValueError, match=match):
            Autoscaler(topology, steerer, template, [(1, 0), slot])


# ----------------------------------------------------------------------
# ClusterScenario end-to-end
# ----------------------------------------------------------------------
def small_scenario(hosts=2, autoscale=False, rate=200_000, flows=2):
    scenario = ClusterScenario(n_hosts=hosts, seed=3)
    scenario.add_slo_class("gold", 500.0)
    scenario.set_chain("svc", (120.0, 270.0), slo_us=500.0,
                       placements=((0, 0),))
    if autoscale:
        scenario.enable_autoscaler(
            slots=[(h, 0) for h in range(1, hosts)],
            up_after=2, cooldown_ns=10 * MSEC)
    for i in range(flows):
        scenario.add_flow(f"f{i}", rate_pps=rate, slo_class="gold")
    return scenario


class TestClusterScenario:
    def test_packets_flow_and_summary_merges_hosts(self):
        scenario = small_scenario()
        result = scenario.run(0.05)
        assert result.total_throughput_pps > 0
        assert "svc~r0@h0" in result.chains
        assert all(nf.startswith("svc~r0.") for nf in result.nfs)
        # Host-qualified core key space: host 0, core 0.
        assert 0 in result.core_utilization

    def test_conservation_across_the_fabric(self):
        scenario = small_scenario()
        scenario.run(0.05)
        offered = delivered = resid = 0
        for spec in scenario.generator.specs:
            offered += spec.flow.stats.offered
            delivered += spec.flow.stats.delivered
            resid += (spec.flow.stats.entry_discards
                      + spec.flow.stats.queue_drops)
        in_flight = sum(link.in_flight for link in scenario.topology.links)
        for host in scenario.topology.hosts:
            mgr = host.manager
            in_flight += len(mgr.nic.rx_ring)
            in_flight += sum(len(nf.rx_ring) + len(nf.tx_ring)
                             for nf in mgr.nfs)
        assert offered == delivered + resid + in_flight
        assert offered > 0 and delivered > 0

    def test_cluster_block_rides_resilience(self):
        result = small_scenario().run(0.05)
        block = result.resilience["cluster"]
        assert block["hosts"] == 2
        assert block["placements"] == 1
        assert block["flows_admitted"] == 2
        assert "ingress->h0" in block["links"]
        assert block["ingress_packets"] > 0
        exported = result_to_dict(result)
        assert exported["resilience"]["cluster"]["hosts"] == 2

    def test_identical_runs_digest_identically(self):
        r1 = small_scenario(autoscale=True).run(0.05)
        r2 = small_scenario(autoscale=True).run(0.05)
        assert json.dumps(result_to_dict(r1), sort_keys=True) \
            == json.dumps(result_to_dict(r2), sort_keys=True)

    def overload_scenario(self):
        """Initial demand ~0.68 of one replica core (3 Mpps against
        ~4.4 Mpps capacity), then two more flows at t=100 ms: the scaler
        must add a replica, and — bindings being permanent — only the
        late flows can land on it."""
        scenario = ClusterScenario(n_hosts=2, seed=3)
        scenario.add_slo_class("gold", 500.0)
        scenario.set_chain("svc", (120.0, 270.0), slo_us=500.0,
                           placements=((0, 0),))
        scenario.enable_autoscaler(
            slots=[(1, 0), (0, 1), (1, 1)],
            up_after=2, cooldown_ns=10 * MSEC)
        for i in range(2):
            scenario.add_flow(f"f{i}", rate_pps=1_500_000,
                              slo_class="gold")
        for i in range(2, 4):
            scenario.add_flow(f"f{i}", rate_pps=1_500_000,
                              slo_class="gold", start_ns=100 * MSEC)
        return scenario

    def test_autoscaler_reacts_to_overload(self):
        result = self.overload_scenario().run(0.2)
        scaler = result.resilience["cluster"]["autoscaler"]
        assert scaler["scale_outs"] >= 1
        assert scaler["events"][0]["kind"] == "scale_out"

    def test_flow_latency_tracker_spans_hosts(self):
        result = self.overload_scenario().run(0.2)
        flows = result.flow_latency["flows"]
        assert set(flows) == {"f0", "f1", "f2", "f3"}
        chains = result.flow_latency["chains"]
        assert len(chains) >= 2            # completions on >= 2 replicas

    def test_construction_guards(self):
        scenario = ClusterScenario(n_hosts=1)
        with pytest.raises(RuntimeError, match="set_chain before run"):
            scenario.run(0.01)
        with pytest.raises(ValueError, match="duration_s"):
            scenario.run(0)
        with pytest.raises(ValueError, match="duration_s"):
            scenario.run(float("inf"))
        with pytest.raises(RuntimeError, match="set_chain before"):
            scenario.enable_autoscaler(slots=[])
        scenario.set_chain("svc", (100.0,))
        with pytest.raises(RuntimeError, match="only be called once"):
            scenario.set_chain("svc2", (100.0,))
        with pytest.raises(ValueError, match="undeclared SLO class"):
            scenario.add_flow("f0", rate_pps=1000, slo_class="missing")

    @pytest.mark.parametrize("slo_us", [0, -1.0, float("nan"),
                                        float("inf")])
    def test_add_slo_class_rejects_bad_budget(self, slo_us):
        scenario = ClusterScenario(n_hosts=1)
        with pytest.raises(ValueError, match="slo_us"):
            scenario.add_slo_class("gold", slo_us)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -1.0])
    def test_add_flow_rejects_bad_rate(self, rate):
        scenario = ClusterScenario(n_hosts=1)
        with pytest.raises(ValueError, match="rate_pps"):
            scenario.add_flow("f0", rate_pps=rate)

    @pytest.mark.parametrize("placement,match", [
        ((-1, 0), r"placements\[0\]: host -1 outside the cluster \(0\.\.1\)"),
        ((5, 0), r"placements\[0\]: host 5 outside the cluster \(0\.\.1\)"),
        ((1, -1), r"placements\[0\]: core -1 outside 0\.\.99"),
        ((0, 100), r"placements\[0\]: core 100 outside 0\.\.99"),
    ])
    def test_bad_placements_fail_at_set_chain(self, placement, match):
        scenario = ClusterScenario(n_hosts=2)
        with pytest.raises(ValueError, match=match):
            scenario.set_chain("svc", (100.0,), placements=(placement,))
        # The rejected call left nothing half-declared.
        scenario.set_chain("svc", (100.0,), placements=((1, 99),))


# ----------------------------------------------------------------------
# ClusterScenario: a chain spanning hosts (one slot per NF)
# ----------------------------------------------------------------------
class TestSpanningPlacement:
    def run_spanning(self):
        scenario = ClusterScenario(n_hosts=3, features="Default", seed=1)
        scenario.set_chain("svc", (120.0, 270.0, 550.0),
                           placements=[((0, 0), (0, 1), (2, 0))])
        flow = scenario.add_flow("f0", rate_pps=200_000)
        return scenario, flow, scenario.run(0.02)

    def test_legs_are_joined_by_one_host_link(self):
        scenario, flow, result = self.run_spanning()
        assert set(result.chains) == {"svc~r0@h0", "svc~r0@h2"}
        assert set(result.nfs) == {"svc~r0.nf1@h0", "svc~r0.nf2@h0",
                                   "svc~r0.nf3@h2"}
        # Per-NF cores: host 0's two NFs sit on cores 0 and 1.
        assert {0, 1, 200} <= set(result.core_utilization)
        links = result.resilience["cluster"]["links"]
        assert links["h0.nic->h2.nic"]["carried_packets"] \
            == result.chains["svc~r0@h0"].completed > 0
        assert result.resilience["cluster"]["placements"] == 1

    def test_handoff_is_not_a_delivery(self):
        scenario, flow, result = self.run_spanning()
        last = result.chains["svc~r0@h2"].completed
        assert flow.stats.delivered == last > 0
        assert result.total_throughput_pps == last / 0.02
        assert result.chains["svc~r0@h0"].completed > last

    @pytest.mark.parametrize("entry,match", [
        (((0, 0), (1, 0)), r"placements\[0\]: 2 slots for a chain of 3"),
        (((0, 0), (1, 0), (0, 1)),
         r"placements\[0\]: the chain returns to a host"),
        (((0, 0), (5, 0), (1, 0)),
         r"placements\[0\]\[1\]: host 5 outside the cluster"),
        (((0, 0), (1, 0), (1, 100)),
         r"placements\[0\]\[2\]: core 100 outside"),
    ])
    def test_bad_per_nf_entries_name_the_slot(self, entry, match):
        scenario = ClusterScenario(n_hosts=2)
        with pytest.raises(ValueError, match=match):
            scenario.set_chain("svc", (1.0, 2.0, 3.0), placements=[entry])

    def test_host_hands_off_to_one_host(self):
        scenario = ClusterScenario(n_hosts=3)
        with pytest.raises(ValueError, match=r"placements\[1\]: host 0 "
                           r"already hands off to host 1"):
            scenario.set_chain("svc", (1.0, 2.0), placements=[
                ((0, 0), (1, 0)), ((0, 1), (2, 0))])

    def test_spanning_placement_is_static_only(self):
        scenario = ClusterScenario(n_hosts=2)
        scenario.set_chain("svc", (1.0, 2.0),
                           placements=[(1, 0), ((0, 0), (1, 1))])
        with pytest.raises(ValueError, match=r"placements\[1\]: .*static"):
            scenario.enable_autoscaler(slots=[(0, 1)])


# ----------------------------------------------------------------------
# ClusterTopology.connect: host-to-host edges
# ----------------------------------------------------------------------
@pytest.mark.parametrize("upstream,downstream,match", [
    (0, -1, r"downstream -1 outside the cluster \(0\.\.1\)"),
    (0, 9, r"downstream 9 outside the cluster \(0\.\.1\)"),
    (-1, 1, r"upstream -1 outside the cluster \(0\.\.1\)"),
    (2, 0, r"upstream 2 outside the cluster \(0\.\.1\)"),
    (1, 1, r"upstream and downstream are both h1"),
])
def test_connect_rejects_bad_host_indices(loop, config, upstream,
                                          downstream, match):
    topology = ClusterTopology(loop, 2, config=config)
    with pytest.raises(ValueError, match=match):
        topology.connect(upstream, downstream)
    assert len(topology.links) == 2             # ingress star only
    assert all(host.manager.nic.on_transmit is None
               for host in topology.hosts)


# ----------------------------------------------------------------------
# Monitor cluster snapshot
# ----------------------------------------------------------------------
def test_monitor_cluster_snapshot(loop, config):
    mgr = NFManager(loop, config=config)
    nf = mgr.add_nf(NFProcess("nf0", FixedCost(100), config=config))
    mgr.add_chain("c0", [nf])
    flow = Flow("f0")
    mgr.install_flow(flow, mgr.chains["c0"])
    mgr.start()
    mgr.nic.rx_ring.enqueue(flow, 64, 0)
    loop.run_until(5 * MSEC)
    assert mgr.monitor is not None
    snap = mgr.monitor.cluster_snapshot(loop.now)
    assert set(snap) == {"nf0"}
    row = snap["nf0"]
    assert set(row) == {"arrival_pps", "load", "rx_occupancy"}
    assert row["arrival_pps"] > 0
    nf.failed = True
    assert mgr.monitor.cluster_snapshot(loop.now) == {}


# ----------------------------------------------------------------------
# Duplicate-name hardening (NFManager.add_nf / add_chain)
# ----------------------------------------------------------------------
class TestDuplicateNames:
    def test_add_nf_rejects_duplicate_name(self, loop, config):
        mgr = NFManager(loop, config=config)
        mgr.add_nf(NFProcess("nf0", FixedCost(100), config=config))
        with pytest.raises(ValueError, match="duplicate NF name 'nf0'"):
            mgr.add_nf(NFProcess("nf0", FixedCost(200), config=config),
                       core_id=1)
        assert len(mgr.nfs) == 1                # roster unchanged

    def test_add_chain_rejects_duplicate_name(self, loop, config):
        mgr = NFManager(loop, config=config)
        nf = mgr.add_nf(NFProcess("nf0", FixedCost(100), config=config))
        mgr.add_chain("c0", [nf])
        with pytest.raises(ValueError, match="duplicate chain name"):
            mgr.add_chain("c0", [nf])


# ----------------------------------------------------------------------
# Link metrics on the obs bus / Prometheus exporter
# ----------------------------------------------------------------------
class TestLinkMetrics:
    def test_link_counters_exported_with_labels(self, loop):
        session = ObsSession(metrics_path=None)
        link = FabricLink(loop, "ingress->h1", lambda f, c, o: None,
                          queue_cap_pkts=50, ecn_mark_pkts=10)
        link.send(Flow("t0", protocol="tcp"), 60, 0)
        session.register_link_metrics([link], "clusterX")
        text = render_prometheus(session.registry)
        assert ('repro_link_carried_packets_total'
                '{link="ingress->h1",scenario="clusterX"} 50') in text
        assert ('repro_link_dropped_packets_total'
                '{link="ingress->h1",scenario="clusterX"} 10') in text
        assert ('repro_link_ecn_marked_total'
                '{link="ingress->h1",scenario="clusterX"} 50') in text
        assert "# TYPE repro_link_carried_packets_total counter" in text
        assert "# TYPE repro_link_in_flight gauge" in text

    def test_hostile_link_names_are_escaped(self, loop):
        """Label values with quotes/backslashes/newlines must round-trip
        through the Prometheus text format escaped, not mangled."""
        session = ObsSession()
        name = 'tor"0\\rack\n->h9'
        link = FabricLink(loop, name, lambda f, c, o: None)
        session.register_link_metrics([link], 'h"o\\st')
        text = render_prometheus(session.registry)
        assert ('link="tor\\"0\\\\rack\\n->h9"') in text
        assert ('scenario="h\\"o\\\\st"') in text
        # Every exposition line stays a single line (raw newline escaped).
        for line in text.splitlines():
            assert line.startswith(("#", "repro_link_"))

    def test_attach_cluster_registers_hosts_and_links(self):
        from repro.experiments.common import RunContext

        scenario = small_scenario()
        session = ObsSession()
        with RunContext(session=session) as ctx:
            scenario.run(0.02)     # run attaches the context's session
        assert ctx.attached["session"] == 1
        assert ctx.attached["stream"] == 0
        names = {name for name, _labels, _kind, _m
                 in session.registry.collect()}
        assert "repro_link_in_flight" in names
        assert "repro_nf_processed_packets" in names
        labels = {labels.get("scenario")
                  for _n, labels, _k, _m in session.registry.collect()}
        assert "cluster2/NORMAL/NFVnice/h0" in labels
        assert "cluster2/NORMAL/NFVnice/h1" in labels
        assert "cluster2/NORMAL/NFVnice" in labels


# ----------------------------------------------------------------------
# Dormant manager threads on NF-less hosts
# ----------------------------------------------------------------------
def run_recorded_cell(monkeypatch, workload, hosts, mode, duration_s):
    """Run one cluster_scaling cell; return its scenario, its result and
    every Rx/Tx/wakeup fire instant, keyed by thread object."""
    fires = {}
    for cls, name in ((RxThread, "poll"), (TxThread, "poll"),
                      (WakeupSubsystem, "scan")):
        original = getattr(cls, name)

        def recording(self, _original=original):
            fires.setdefault(self, []).append(self.loop.now)
            _original(self)

        monkeypatch.setattr(cls, name, recording)
    built = []

    class Recorded(ClusterScenario):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(cluster_scaling, "ClusterScenario", Recorded)
    result = cluster_scaling.run_case(workload, hosts, mode,
                                      duration_s=duration_s)
    return built[0], result, fires


def manager_threads(mgr):
    return [mgr.wakeup, mgr.rx_thread, *mgr.tx_threads]


class TestDormantHostThreads:
    def test_static_cell_leaves_empty_hosts_unarmed(self, monkeypatch):
        scenario, _result, fires = run_recorded_cell(
            monkeypatch, "flash", 8, "static", duration_s=0.02)
        hosts = scenario.topology.hosts
        assert [len(h.manager.nfs) > 0 for h in hosts] == [True] + [False] * 7
        for thread in manager_threads(hosts[0].manager):
            assert thread._tick is not None and fires[thread]
        for host in hosts[1:]:
            mgr = host.manager
            for thread in manager_threads(mgr):
                assert thread._tick is None
                assert thread not in fires
            ring = mgr.nic.rx_ring
            assert (ring.enqueued_total, ring.dequeued_total,
                    ring.dropped_total) == (0, 0, 0)
            assert (mgr.nic.tx_packets, mgr.nic.tx_bytes) == (0, 0)

    def test_scale_out_arms_on_the_start_grid(self, monkeypatch):
        scenario, result, fires = run_recorded_cell(
            monkeypatch, "mmpp", 2, "auto", duration_s=0.13)
        event = result.resilience["cluster"]["autoscaler"]["events"][0]
        assert (event["kind"], event["host"]) == ("scale_out", "h1")
        t_out = event["t_ns"]
        mgr = scenario.topology.hosts[1].manager
        cfg = mgr.config
        assert len(mgr.tx_threads) == 1
        # A lone Tx thread has phase 0, so all three grids are k·period
        # from the epoch at t=0.
        grids = [(mgr.wakeup, cfg.wakeup_scan_ns),
                 (mgr.rx_thread, cfg.rx_poll_ns),
                 (mgr.tx_threads[0], cfg.tx_poll_ns)]
        for thread, period in grids:
            times = fires[thread]
            # The autoscaler's 5 ms tick sits on every grid, so the first
            # fire is one period later, not at the scale-out instant.
            assert t_out % period == 0
            assert times[0] == t_out + period
            assert all(t % period == 0 for t in times)
            assert all(b - a == period for a, b in zip(times, times[1:]))
            assert times[-1] >= scenario.loop.now - period


#: ``result_digest(run_case(w, h, "auto", duration_s=0.35, seed=s))`` as
#: computed before idle hosts stopped polling.  The flash crowd draws no
#: randomness, so its digest does not depend on the seed; the mmpp cells
#: scale out onto empty hosts and so exercise the late-arm path.
PINNED_AUTO_DIGESTS = {
    ("flash", 2, 1): "ff02942f2b29c19fbe80ba0e39342ffffbd7bee61e46df9ed162ec5852e5bb69",
    ("flash", 2, 2): "ff02942f2b29c19fbe80ba0e39342ffffbd7bee61e46df9ed162ec5852e5bb69",
    ("flash", 2, 7): "ff02942f2b29c19fbe80ba0e39342ffffbd7bee61e46df9ed162ec5852e5bb69",
    ("flash", 8, 1): "81ff20da323ef9ae99ce07fd8a8ebf078ae290c7fb4a36fae193647f6c3c2fe2",
    ("flash", 8, 2): "81ff20da323ef9ae99ce07fd8a8ebf078ae290c7fb4a36fae193647f6c3c2fe2",
    ("flash", 8, 7): "81ff20da323ef9ae99ce07fd8a8ebf078ae290c7fb4a36fae193647f6c3c2fe2",
    ("mmpp", 2, 1): "3bec6a2299b285dadcb36eea820886daa18a781fe90995735826ab60c77846de",
    ("mmpp", 2, 2): "c6cc857a898b0870107114e35e5cd6e278ca662dcd4c8556e6eed55048ffd0ad",
    ("mmpp", 2, 7): "ad8387f9d8fd051af3837e6dbf9a258628b2a4d59894d5bdfedb76a54389383f",
    ("mmpp", 8, 1): "9dd429e5890d23060f1401f5925ff2477373981335535cd24a7ec7f7a362deea",
    ("mmpp", 8, 2): "1aa2b1c976a8bb55d3a1ca9fa89f8433ac083f3a75a819316752ddd48dd96545",
    ("mmpp", 8, 7): "33230edf9f01a5478aab6b3308b2022adbf39d2fce638b4fc79a0f9be495860f",
}


@pytest.mark.parametrize("workload,hosts,seed", sorted(PINNED_AUTO_DIGESTS))
def test_auto_cell_digest_pinned(workload, hosts, seed):
    result = cluster_scaling.run_case(workload, hosts, "auto",
                                      duration_s=0.35, seed=seed)
    assert digest_of(result_to_dict(result)) \
        == PINNED_AUTO_DIGESTS[workload, hosts, seed]
