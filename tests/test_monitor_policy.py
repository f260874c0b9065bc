"""Tests for the cgroup share policy and the Monitor thread."""

import pytest

from repro.core.cgroup_policy import BASE_SHARES, compute_shares
from repro.core.monitor import MonitorThread
from repro.core.nf import NFProcess
from repro.nfs.cost_models import FixedCost
from repro.platform.packet import Flow
from repro.sched import Core, make_scheduler
from repro.sched.cgroups import CgroupController
from repro.sim.clock import MSEC, SEC


class TestComputeShares:
    def test_rate_proportional(self):
        """Same cost, double arrival rate -> double the shares (§2.1)."""
        shares = compute_shares([("a", 2.0, 1.0), ("b", 1.0, 1.0)])
        assert shares["a"] == pytest.approx(2 * shares["b"], rel=0.01)

    def test_cost_proportional(self):
        """Same arrival rate, double cost -> double the shares."""
        shares = compute_shares([("a", 0.5, 1.0), ("b", 1.0, 1.0)])
        assert shares["b"] == pytest.approx(2 * shares["a"], rel=0.01)

    def test_priority_scales(self):
        shares = compute_shares([("a", 1.0, 2.0), ("b", 1.0, 1.0)])
        assert shares["a"] == pytest.approx(2 * shares["b"], rel=0.01)

    def test_average_stays_at_base(self):
        shares = compute_shares([("a", 1.0, 1.0), ("b", 3.0, 1.0)])
        assert sum(shares.values()) == pytest.approx(2 * BASE_SHARES, abs=2)

    def test_zero_total_load_gives_equal_base(self):
        shares = compute_shares([("a", 0.0, 1.0), ("b", 0.0, 1.0)])
        assert shares == {"a": BASE_SHARES, "b": BASE_SHARES}

    def test_zero_load_nf_keeps_minimal_share(self):
        """Even a momentarily idle NF can make progress (§2.1)."""
        shares = compute_shares([("a", 0.0, 1.0), ("b", 10.0, 1.0)])
        assert shares["a"] >= 1

    def test_empty(self):
        assert compute_shares([]) == {}

    def test_paper_diversity_example(self):
        """§4.3.6: costs 1:2:5:20:40:60 at equal arrival rate — the
        lightest NF gets ~1%, the heaviest ~47% of the CPU."""
        ratios = (1, 2, 5, 20, 40, 60)
        shares = compute_shares([(f"nf{i}", r, 1.0)
                                 for i, r in enumerate(ratios)])
        total = sum(shares.values())
        assert shares["nf0"] / total == pytest.approx(1 / 128, rel=0.1)
        assert shares["nf5"] / total == pytest.approx(60 / 128, rel=0.05)


class TestMonitorThread:
    def _setup(self, loop, config, costs=(500, 1500)):
        core = Core(loop, make_scheduler("NORMAL"))
        nfs = []
        for i, cost in enumerate(costs, start=1):
            nf = NFProcess(f"nf{i}", FixedCost(cost), config=config)
            core.add_task(nf)
            nfs.append(nf)
        cgroups = CgroupController()
        monitor = MonitorThread(loop, nfs, cgroups, config)
        return core, nfs, cgroups, monitor

    def test_arrival_rate_ewma_converges(self, loop, config):
        core, nfs, cgroups, monitor = self._setup(loop, config)
        monitor.start()

        # 1000 packets per ms into nf1 = 1 Mpps.
        def feed():
            nfs[0].rx_ring.enqueue(Flow("f"), 1000, loop.now)
            nfs[0].rx_ring.dequeue(1000)  # keep the ring from saturating

        loop.call_every(MSEC, feed)
        loop.run_until(200 * MSEC)
        assert monitor.arrival_rate_pps(nfs[0]) == pytest.approx(
            1.0e6, rel=0.05)
        assert monitor.arrival_rate_pps(nfs[1]) == 0.0

    def test_load_is_rate_times_service(self, loop, config):
        core, nfs, cgroups, monitor = self._setup(loop, config,
                                                  costs=(2600,))
        monitor._arrival_ewma_pps[nfs[0].name] = 1.0e6
        # 2600 cycles at 2.6 GHz = 1 us; 1 Mpps * 1 us = load 1.0.
        assert monitor.load_of(nfs[0], 0) == pytest.approx(1.0, rel=0.01)

    def test_weights_written_on_update_period(self, loop, config):
        core, nfs, cgroups, monitor = self._setup(loop, config)
        monitor._arrival_ewma_pps[nfs[0].name] = 1.0e6
        monitor._arrival_ewma_pps[nfs[1].name] = 1.0e6
        monitor.start()
        loop.run_until(25 * MSEC)
        assert cgroups.writes >= 2
        # load ratio 500:1500 -> weight ratio 1:3.
        assert nfs[1].weight == pytest.approx(3 * nfs[0].weight, rel=0.05)

    def test_share_series_recorded(self, loop, config):
        core, nfs, cgroups, monitor = self._setup(loop, config)
        monitor.record_series = True
        monitor._arrival_ewma_pps[nfs[0].name] = 1.0e6
        monitor._arrival_ewma_pps[nfs[1].name] = 1.0e6
        monitor.start()
        loop.run_until(25 * MSEC)
        assert len(monitor.share_series["nf1"]) >= 1


class TestDynamicMembership:
    """NFs may register/retire after the Monitor is constructed (restart
    replicas, scale-out instances) without disturbing the estimators."""

    def _setup(self, loop, config):
        return TestMonitorThread._setup(TestMonitorThread(), loop, config)

    def test_late_nf_gets_estimated(self, loop, config):
        core, nfs, cgroups, monitor = self._setup(loop, config)
        monitor.start()
        late = NFProcess("late", FixedCost(500), config=config)
        core.add_task(late)
        monitor.add_nf(late)
        monitor.add_nf(late)                     # idempotent
        assert monitor.nfs.count(late) == 1

        def feed():
            late.rx_ring.enqueue(Flow("f"), 1000, loop.now)
            late.rx_ring.dequeue(1000)

        loop.call_every(MSEC, feed)
        loop.run_until(200 * MSEC)
        assert monitor.arrival_rate_pps(late) == pytest.approx(
            1.0e6, rel=0.05)

    def test_removed_nf_stops_counting(self, loop, config):
        core, nfs, cgroups, monitor = self._setup(loop, config)
        monitor.start()
        monitor.remove_nf(nfs[1])
        monitor.remove_nf(nfs[1])                # absent: no-op
        loop.run_until(25 * MSEC)
        assert nfs[1] not in monitor.nfs

    def test_watchdog_rides_monitor_tick(self, loop, config):
        core, nfs, cgroups, monitor = self._setup(loop, config)
        from repro.faults.watchdog import Watchdog

        wd = Watchdog(loop, 2 * MSEC)
        for nf in nfs:
            wd.register(nf)
        monitor.watchdog = wd
        monitor.start()
        loop.run_until(10 * MSEC)
        assert wd.checks >= 9
