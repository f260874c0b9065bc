"""Pins on the recorded observation streams.

Each pin hashes a complete event stream, so a change to the observation
path that reorders, drops, duplicates or re-labels a single event fails
here, not only in the exported trace:

* the recording bus of one Figure 7 case, two ``cluster_scaling`` cases
  (the longer one scales out onto host 1) and a small fabric-congested
  cluster (the only one with ``link.drop`` / ``link.ecn`` events;
  ``cluster_scaling`` sets no link queue cap or ECN threshold);
* the per-core ``sched.*`` events of a 2-core case (the scheduler
  timeline);
* the fault events of one ``chaos_recovery`` case, field by field.
"""

import hashlib

from repro.cluster.scenario import ClusterScenario
from repro.experiments import chaos_recovery, cluster_scaling
from repro.experiments import fig07_single_core_chain as fig07
from repro.experiments.common import RunContext, Scenario, build_linear_chain
from repro.obs.bus import EventBus
from repro.obs.export import chrome_trace_events
from repro.obs.observer import Observer
from repro.obs.session import ObsSession


def _sha(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
    return h.hexdigest()


def _recorded(run, tmp_path, max_bus_events=100_000):
    """The recording bus an ObsSession attached to the single platform
    (or cluster) that ``run`` builds."""
    session = ObsSession(trace_path=str(tmp_path / "t.json"),
                         max_bus_events=max_bus_events)
    with RunContext(session=session):
        run()
    (_label, bus), = session.buses
    assert bus.dropped == 0
    return bus


def _bus_digest(bus) -> str:
    return _sha((ev.time_ns, ev.kind, ev.source, sorted(ev.args.items()))
                for ev in bus.events)


class TestEventStreamPins:
    def test_fig07_case(self, tmp_path):
        bus = _recorded(
            lambda: fig07.run_case("BATCH", "NFVnice", duration_s=0.05),
            tmp_path)
        assert len(bus) == 9403
        assert _bus_digest(bus) == (
            "e01dac40bbb0fecda72396e82971e5b11b1cc45801cbb0cb5e13476b31cee9bf")

    def test_cluster_scaling_case(self, tmp_path):
        bus = _recorded(
            lambda: cluster_scaling.run_case("flash", 2, "auto",
                                             duration_s=0.05),
            tmp_path)
        assert len(bus) == 17467
        assert _bus_digest(bus) == (
            "9c99e05b980af7af3dc60cda2674fa6a159cbbfc56762e79749a6de36bb20a8a")

    def test_cluster_scaling_case_reaches_host_1(self, tmp_path):
        """Long enough for one scale-out (at about 220 ms): the stream
        covers host 1's scheduler track, not only host 0's."""
        bus = _recorded(
            lambda: cluster_scaling.run_case("flash", 2, "auto",
                                             duration_s=0.25),
            tmp_path, max_bus_events=110_000)
        assert len(bus) == 109414
        assert any(ev.kind.startswith("sched.") and ev.args["core"] >= 100
                   for ev in bus.events)
        assert _bus_digest(bus) == (
            "d3c2827f94b0e695b77158fdb10b4f432a992e35252e21e4a75175e8f40f299f")

    def test_congested_fabric_links(self, tmp_path):
        def run():
            scenario = ClusterScenario(
                n_hosts=2, ingress_bps=1e9, ingress_queue_cap_pkts=64,
                ingress_ecn_mark_pkts=16)
            scenario.set_chain("svc", (120, 270),
                               placements=((0, 0), (1, 0)))
            scenario.add_flow("tcp", rate_pps=1_500_000, protocol="tcp")
            scenario.add_flow("udp", rate_pps=1_500_000)
            scenario.run(0.02)

        bus = _recorded(run, tmp_path)
        assert bus.counts["link.drop"] == 400
        assert bus.counts["link.ecn"] == 200
        # Each host's core 0 has its own scheduler track, so every
        # dispatch pairs with its own switch-out.
        assert {ev.args["core"] for ev in bus.events
                if ev.kind.startswith("sched.")} == {0, 100}
        assert not [e for e in chrome_trace_events(bus) if e["ph"] == "X"
                    and e["args"]["outcome"].startswith("mismatch:")]
        assert _bus_digest(bus) == (
            "5d7f67430b3f891cf5c35c07354edd9e7328ae8d25906ea549800477871f8e74")

    def test_two_core_sched_events(self):
        scenario = Scenario(scheduler="BATCH", features="NFVnice")
        build_linear_chain(scenario, (120, 300, 550), core=(0, 1, 1))
        scenario.add_flow("f", "chain", line_rate_fraction=0.5)
        bus = EventBus(scenario.loop)
        scenario.manager.attach_observability(Observer(bus=bus))
        scenario.run(0.05)
        per_core = {0: [], 1: []}
        for ev in bus.events:
            if ev.kind.startswith("sched."):
                per_core[ev.args["core"]].append(ev)
        assert (len(per_core[0]), len(per_core[1])) == (1152, 189)
        rows = [(c, ev.time_ns, c, ev.kind[len("sched."):], ev.source,
                 ev.args.get("detail", ""))
                for c in (0, 1) for ev in per_core[c]]
        assert _sha(rows) == (
            "747d2007e5770da0385e5281716a67f92b5bff3aaf2f21e358bc1e03cdb575ae")


class TestFaultEvents:
    def test_chaos_case_records_fault_events_in_order(self, tmp_path):
        """A traced run that injects a fault records it; each event names
        the fault under ``fault`` (``kind`` is the bus event's own)."""
        bus = _recorded(
            lambda: chaos_recovery.run_case("crash", "restart-cold", 2.0,
                                            duration_s=0.05),
            tmp_path)
        faults = [(ev.time_ns, ev.kind, ev.source, ev.args)
                  for ev in bus.events if ev.kind.startswith("fault.")]
        assert faults == [
            (16_667_000, "fault.inject", "nf2",
             {"fault": "crash", "index": 0, "lost": 32}),
            (19_000_000, "fault.detect", "nf2",
             {"fault": "crash", "latency_ns": 2_333_000}),
            (20_000_000, "fault.recover", "nf2",
             {"fault": "crash", "outage_ns": 3_333_000, "lost": 1433,
              "requeued": 0}),
        ]
        assert len(bus) == 8805
        assert _bus_digest(bus).startswith("bef03c303c7effee213e")
