"""Tests for the Rx/Tx/Wakeup manager threads and the NF Manager."""

import pytest

from repro.core.nf import NFProcess
from repro.nfs.cost_models import FixedCost
from repro.platform.manager import NFManager
from repro.platform.packet import Flow
from repro.platform.tx import TxThread
from repro.sched.base import TaskState
from repro.sim.clock import MSEC, SEC, USEC
from repro.sim.engine import EventLoop


def build(loop, config, costs=(260, 260), scheduler="BATCH", chains=None):
    """A small manager with one chain over ``costs`` NFs on core 0."""
    mgr = NFManager(loop, scheduler=scheduler, config=config)
    nfs = [mgr.add_nf(NFProcess(f"nf{i}", FixedCost(c), config=config))
           for i, c in enumerate(costs, start=1)]
    chain = mgr.add_chain("chain", nfs)
    flow = Flow("f0")
    mgr.install_flow(flow, chain)
    return mgr, nfs, chain, flow


class TestManagerConstruction:
    def test_duplicate_chain_rejected(self, loop, config):
        mgr, nfs, chain, flow = build(loop, config)
        with pytest.raises(ValueError):
            mgr.add_chain("chain", nfs)

    def test_foreign_nf_rejected(self, loop, config):
        mgr, nfs, chain, flow = build(loop, config)
        stranger = NFProcess("stranger", FixedCost(100), config=config)
        with pytest.raises(ValueError):
            mgr.add_chain("other", [stranger])

    def test_add_nf_after_start_registers_live(self, loop, config):
        # Post-start registration (a restarted instance, a scaled-out
        # replica) announces the NF to the wakeup scan, the monitor, and
        # the least-loaded Tx thread.
        mgr, nfs, chain, flow = build(loop, config)
        mgr.start()
        late = mgr.add_nf(NFProcess("late", FixedCost(100), config=config))
        assert late in mgr.wakeup.nfs
        assert any(late in tx.nfs for tx in mgr.tx_threads)
        if mgr.monitor is not None:
            assert late in mgr.monitor.nfs
        # The late NF serves traffic end to end.
        solo = mgr.add_chain("late-chain", [late])
        f2 = Flow("f-late")
        mgr.install_flow(f2, solo)
        mgr.nic.rx_ring.enqueue(f2, 64, loop.now)
        loop.run_until(loop.now + 20 * MSEC)
        assert late.processed_packets == 64
        assert solo.completed == 64

    def test_nf_by_name(self, loop, config):
        mgr, nfs, chain, flow = build(loop, config)
        assert mgr.nf_by_name("nf1") is nfs[0]
        with pytest.raises(KeyError):
            mgr.nf_by_name("ghost")

    def test_features_wired_by_config(self, loop, config, default_config):
        mgr, *_ = build(loop, config)
        mgr.start()
        assert mgr.backpressure is not None
        assert mgr.monitor is not None
        loop2 = EventLoop()
        mgr2, *_ = build(loop2, default_config)
        mgr2.start()
        assert mgr2.backpressure is None
        assert mgr2.monitor is None

    def test_lazy_core_creation_with_distinct_schedulers(self, loop, config):
        mgr = NFManager(loop, scheduler="RR_1MS", config=config)
        c0, c1 = mgr.core(0), mgr.core(1)
        assert c0 is not c1
        assert c0.scheduler is not c1.scheduler


class TestDataPath:
    def test_packets_flow_through_chain(self, loop, config):
        mgr, nfs, chain, flow = build(loop, config)
        mgr.start()
        mgr.nic.receive(flow, 100, 0)
        loop.run_until(50 * MSEC)
        assert chain.completed == 100
        assert flow.stats.delivered == 100
        assert mgr.nic.tx_packets == 100

    def test_rx_thread_drops_unroutable(self, loop, config):
        mgr, nfs, chain, flow = build(loop, config)
        mgr.start()
        stranger = Flow("stranger")
        mgr.nic.receive(stranger, 50, 0)
        loop.run_until(MSEC)
        assert mgr.rx_thread.unroutable == 50

    def test_wakeup_on_packet_arrival(self, loop, config):
        mgr, nfs, chain, flow = build(loop, config)
        mgr.start()
        assert nfs[0].state is TaskState.BLOCKED
        mgr.nic.receive(flow, 10, 0)
        loop.run_until(config.rx_poll_ns + 10 * USEC)
        assert nfs[0].processed_packets > 0 or \
            nfs[0].state is not TaskState.BLOCKED

    def test_wasted_work_attributed_to_upstream(self, loop, default_config):
        """NFs on dedicated cores (the Table 5 regime): the fast upstream
        NF keeps processing packets the slow downstream one must drop, and
        every drop is charged to the upstream NF as wasted work."""
        mgr = NFManager(loop, scheduler="BATCH", config=default_config)
        nfs = [
            mgr.add_nf(NFProcess("nf1", FixedCost(100),
                                 config=default_config), core_id=0),
            mgr.add_nf(NFProcess("nf2", FixedCost(20000),
                                 config=default_config), core_id=1),
        ]
        chain = mgr.add_chain("chain", nfs)
        flow = Flow("f0")
        mgr.install_flow(flow, chain)
        mgr.start()
        loop.call_every(
            100 * USEC, lambda: mgr.nic.receive(flow, 100, loop.now))
        loop.run_until(200 * MSEC)
        assert nfs[0].wasted_processed > 0
        assert chain.wasted_drops == nfs[0].wasted_processed

    def test_chain_completion_bytes(self, loop, config):
        mgr, nfs, chain, flow = build(loop, config)
        mgr.start()
        mgr.nic.receive(flow, 10, 0)
        loop.run_until(50 * MSEC)
        assert chain.completed_bytes == 10 * flow.pkt_size


class TestBackpressureIntegration:
    def test_entry_discard_for_throttled_chain(self, loop, config):
        """A slow downstream NF triggers entry discard of fresh arrivals."""
        mgr, nfs, chain, flow = build(loop, config, costs=(100, 50000))
        mgr.start()
        loop.call_every(100 * USEC,
                        lambda: mgr.nic.receive(flow, 200, loop.now))
        loop.run_until(300 * MSEC)
        assert chain.entry_discards > 0
        assert flow.stats.entry_discards == chain.entry_discards

    def test_default_platform_never_entry_discards(self, loop,
                                                   default_config):
        mgr, nfs, chain, flow = build(loop, default_config,
                                      costs=(100, 50000))
        mgr.start()
        loop.call_every(100 * USEC,
                        lambda: mgr.nic.receive(flow, 200, loop.now))
        loop.run_until(100 * MSEC)
        assert chain.entry_discards == 0

    def test_backpressure_reduces_wasted_work(self, loop, config,
                                              default_config):
        """The headline claim: same topology and load, wasted work drops
        by orders of magnitude with NFVnice."""
        def run(cfg):
            lp = EventLoop()
            mgr, nfs, chain, flow = build(lp, cfg, costs=(100, 260, 50000),
                                          scheduler="BATCH")
            mgr.start()
            lp.call_every(
                100 * USEC, lambda: mgr.nic.receive(flow, 300, lp.now))
            lp.run_until(500 * MSEC)
            return chain

        wasted_default = run(default_config).wasted_drops
        wasted_nfvnice = run(config).wasted_drops
        assert wasted_default > 10 * max(wasted_nfvnice, 1)


class TestTxFullLocalBackpressure:
    def test_nf_blocks_on_full_tx_and_resumes(self, loop, default_config):
        """Local backpressure: Tx-ring-full blocks the NF; the Tx thread's
        drain releases it (§3.3)."""
        mgr, nfs, chain, flow = build(loop, default_config,
                                      costs=(100, 100))
        mgr.start()
        nf1 = nfs[0]
        # Pre-fill nf1's tx ring so it must block quickly.
        nf1.tx_ring.enqueue(flow, default_config.ring_capacity, 0)
        mgr.nic.receive(flow, 50, 0)
        loop.run_until(20 * MSEC)
        # Everything eventually delivered despite the stall.
        assert chain.completed == default_config.ring_capacity + 50


class TestIOUnblockWiring:
    def test_io_unblock_posts_wakeup(self, loop, config):
        from repro.core.io import DiskDevice, SyncIOContext

        mgr = NFManager(loop, scheduler="BATCH", config=config)
        disk = DiskDevice(loop, bandwidth_bps=8e9, op_latency_ns=50 * USEC)
        io = SyncIOContext(loop, disk)
        logger = NFProcess("logger", FixedCost(260), config=config, io=io)
        mgr.add_nf(logger)
        chain = mgr.add_chain("chain", [logger])
        flow = Flow("f0")
        mgr.install_flow(flow, chain)
        mgr.start()
        assert io.on_unblock is not None
        mgr.nic.receive(flow, 5, 0)
        loop.run_until(10 * MSEC)
        assert chain.completed == 5


class TestMultipleTxThreads:
    def test_nfs_partitioned_across_tx_threads(self, loop, config):
        import dataclasses

        cfg = dataclasses.replace(config, num_tx_threads=2)
        mgr, nfs, chain, flow = build(loop, cfg, costs=(260, 260, 260))
        mgr.start()
        assert len(mgr.tx_threads) == 2
        covered = [nf.name for tx in mgr.tx_threads for nf in tx.nfs]
        assert sorted(covered) == sorted(nf.name for nf in nfs)

    def test_traffic_flows_with_multiple_tx_threads(self, loop, config):
        import dataclasses

        cfg = dataclasses.replace(config, num_tx_threads=3)
        mgr, nfs, chain, flow = build(loop, cfg, costs=(260, 260, 260))
        mgr.start()
        mgr.nic.receive(flow, 200, 0)
        loop.run_until(50 * MSEC)
        assert chain.completed == 200

    def test_back_compat_tx_thread_property(self, loop, config):
        mgr, *_ = build(loop, config)
        mgr.start()
        assert mgr.tx_thread is mgr.tx_threads[0]


class TestThreadArming:
    """Rx/Tx/wakeup threads arm on the start-time grid, and only once the
    manager has an NF."""

    def test_start_arms_one_period_after_the_epoch(self, loop, config):
        import dataclasses

        cfg = dataclasses.replace(config, num_tx_threads=2)
        loop.run_until(7 * USEC)
        mgr, *_ = build(loop, cfg)
        mgr.start()
        assert mgr.wakeup._tick.time == 7 * USEC + cfg.wakeup_scan_ns
        assert mgr.rx_thread._tick.time == 7 * USEC + cfg.rx_poll_ns
        stagger = cfg.tx_poll_ns // 2
        assert [tx._tick.time for tx in mgr.tx_threads] == [
            7 * USEC + cfg.tx_poll_ns + i * stagger for i in range(2)]

    def test_empty_manager_arms_on_its_first_nf(self, loop, config):
        mgr = NFManager(loop, config=config)
        mgr.start()
        threads = [mgr.wakeup, mgr.rx_thread, *mgr.tx_threads]
        assert all(t._tick is None for t in threads)
        loop.run_until(1234 * USEC)
        nf = mgr.add_nf(NFProcess("nf1", FixedCost(100), config=config))
        assert nf in mgr.tx_threads[0].nfs
        assert mgr.wakeup._tick.time == 1300 * USEC
        assert mgr.rx_thread._tick.time == 1250 * USEC
        assert mgr.tx_threads[0]._tick.time == 1250 * USEC

    def test_late_tx_arm_keeps_its_phase(self, loop, config):
        mgr = NFManager(loop, config=config)
        mgr.start()
        tx = TxThread(loop, [], mgr.nic, mgr.wakeup, None, None, config)
        loop.run_until(137 * USEC)
        tx.start(phase_ns=20 * USEC, epoch=0)
        assert tx._tick.time == 170 * USEC      # grid 70, 120, 170, ...

    def test_late_arm_replays_the_budget_carry(self, config):
        """A non-integral per-poll Rx budget: the carry of a thread armed
        late equals, bit for bit, a loop of the per-poll float ops, and
        stays equal to an always-armed thread's from then on."""
        import dataclasses

        cfg = dataclasses.replace(config, rx_thread_max_pps=6_800_001.0)
        eager_loop, late_loop = EventLoop(), EventLoop()
        eager = NFManager(eager_loop, config=cfg)
        eager.add_nf(NFProcess("nf1", FixedCost(100), config=cfg))
        eager.start()
        late = NFManager(late_loop, config=cfg)
        late.start()
        t_arm = 3 * MSEC + 20 * USEC
        late_loop.run_until(t_arm)
        late.add_nf(NFProcess("nf1", FixedCost(100), config=cfg))

        per_poll = late.rx_thread._budget_per_poll
        assert per_poll != int(per_poll)
        skipped = t_arm // cfg.rx_poll_ns
        carry = 0.0
        for _ in range(skipped):
            carry += per_poll
            carry -= int(carry)
        assert carry != 0.0
        assert late.rx_thread._budget_carry == carry    # exact, not approx
        assert late.rx_thread._tick.time == (skipped + 1) * cfg.rx_poll_ns

        end = 9 * MSEC + 1
        eager_loop.run_until(end)
        late_loop.run_until(end)
        assert late.rx_thread._budget_carry == eager.rx_thread._budget_carry
