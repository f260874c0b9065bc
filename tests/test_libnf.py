"""Tests for the libnf developer API and callback NFs."""

import pytest

from repro.core.io import DiskDevice
from repro.core.libnf import CallbackNF, LibnfAPI
from repro.nfs.cost_models import FixedCost
from repro.platform.chain import ServiceChain
from repro.platform.packet import Flow
from repro.sim.clock import MSEC, SEC


def forward_all(api, flow, count, now):
    return count


class TestCallbackNF:
    def test_forwarding_handler(self, config):
        nf = CallbackNF("fw", FixedCost(260), forward_all, config=config)
        nf.rx_ring.enqueue(Flow("f"), 10, 0)
        nf.execute(0, SEC)
        assert len(nf.tx_ring) == 10
        assert nf.dropped_by_handler == 0

    def test_firewall_drop_handler(self, config):
        def deny_evil(api, flow, count, now):
            return 0 if flow.flow_id == "evil" else count

        nf = CallbackNF("fw", FixedCost(260), deny_evil, config=config)
        nf.rx_ring.enqueue(Flow("good"), 10, 0)
        nf.rx_ring.enqueue(Flow("evil"), 5, 1)
        nf.execute(0, SEC)
        assert len(nf.tx_ring) == 10
        assert nf.dropped_by_handler == 5

    def test_partial_forward(self, config):
        nf = CallbackNF("sampler", FixedCost(260),
                        lambda api, f, n, t: n // 2, config=config)
        nf.rx_ring.enqueue(Flow("f"), 10, 0)
        nf.execute(0, SEC)
        assert len(nf.tx_ring) == 5

    def test_handler_return_clamped(self, config):
        nf = CallbackNF("weird", FixedCost(260),
                        lambda api, f, n, t: n + 100, config=config)
        nf.rx_ring.enqueue(Flow("f"), 10, 0)
        nf.execute(0, SEC)
        assert len(nf.tx_ring) == 10

    def test_chain_accounting_still_applies(self, config):
        nf = CallbackNF("fw", FixedCost(260), forward_all, config=config)
        chain = ServiceChain("c", [nf])
        f = Flow("f")
        f.chain = chain
        nf.rx_ring.enqueue(f, 4, 0)
        nf.execute(0, SEC)
        assert nf.processed_packets == 4
        assert nf.rx_ring.dequeued_total == 4
        assert nf.tx_ring.enqueued_total == 4
        assert nf.tx_ring.peek_head().flow.chain is chain

    def test_hops_reach_latency_tracker(self):
        from repro.experiments.common import Scenario
        from repro.obs.latency import FlowLatencyTracker
        from repro.obs.observer import Observer

        scenario = Scenario(scheduler="BATCH", features="NFVnice")
        nfs = [CallbackNF(name, FixedCost(300), forward_all,
                          config=scenario.config) for name in ("fw", "mon")]
        for nf in nfs:
            scenario.manager.add_nf(nf, core_id=0)
        scenario.add_chain("c", ["fw", "mon"])
        scenario.add_flow("f", "c", line_rate_fraction=0.2)
        tracker = FlowLatencyTracker()
        scenario.manager.attach_observability(Observer(latency=tracker))
        scenario.run(0.02)
        raw = tracker.to_dict()
        assert raw["hop_order"] == ["fw", "mon"]
        for nf in nfs:
            assert nf.processed_packets > 0
            assert raw["hops"][nf.name]["wait"]["count"] == \
                nf.processed_packets


class TestLibnfAPI:
    def test_write_pkt(self, config):
        nf = CallbackNF("nf", FixedCost(260), forward_all, config=config)
        accepted = nf.api.write_pkt(Flow("f"), 3, now_ns=0)
        assert accepted == 3
        assert len(nf.tx_ring) == 3

    def test_storage_api_without_disk(self, config):
        nf = CallbackNF("nf", FixedCost(260), forward_all, config=config)
        assert nf.api.write_data(64, lambda ctx: None) == -1
        assert nf.api.read_data(64, lambda ctx: None) == -1

    def test_async_storage_callback_with_context(self, loop, config):
        disk = DiskDevice(loop, bandwidth_bps=8e9, op_latency_ns=1000)
        nf = CallbackNF("nf", FixedCost(260), forward_all, config=config,
                        disk=disk)
        seen = []
        assert nf.api.write_data(64, seen.append, context="flow-ctx") == 0
        loop.run_until(SEC)
        assert seen == ["flow-ctx"]
        assert nf.api.storage_writes == 1

    def test_read_data_counts(self, loop, config):
        disk = DiskDevice(loop, bandwidth_bps=8e9, op_latency_ns=1000)
        nf = CallbackNF("nf", FixedCost(260), forward_all, config=config,
                        disk=disk)
        nf.api.read_data(128, lambda ctx: None)
        assert nf.api.storage_reads == 1
