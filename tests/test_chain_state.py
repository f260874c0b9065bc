"""Additional chain/throttle-state and purge-path tests."""

import pytest

from repro.core.nf import NFProcess
from repro.nfs.cost_models import FixedCost
from repro.platform.chain import ServiceChain
from repro.platform.packet import Flow
from repro.platform.ring import PacketRing


def nf(name, config):
    return NFProcess(name, FixedCost(100), config=config)


class TestThrottleState:
    def test_chain_starts_unthrottled(self, config):
        chain = ServiceChain("c", [nf("a", config)])
        assert not chain.throttled
        assert chain.throttle_cause is None

    def test_counters_start_zero(self, config):
        chain = ServiceChain("c", [nf("a", config)])
        assert chain.completed == 0
        assert chain.entry_discards == 0
        assert chain.wasted_drops == 0
        assert chain.latency_hist.count == 0

    def test_iteration(self, config):
        members = [nf(n, config) for n in "abc"]
        chain = ServiceChain("c", members)
        assert list(chain) == members

    def test_position_of_foreign_nf_raises(self, config):
        chain = ServiceChain("c", [nf("a", config)])
        with pytest.raises(ValueError):
            chain.position_of(nf("stranger", config))


class TestDropChainPurge:
    """purge() discards every queued packet, whatever its chain."""

    def test_purge_updates_all_invariants(self, config):
        ring = PacketRing(capacity=100)
        c1 = ServiceChain("c1", [nf("a", config)])
        c2 = ServiceChain("c2", [nf("b", config)])
        f1, f2 = Flow("f1"), Flow("f2")
        f1.chain, f2.chain = c1, c2
        ring.enqueue(f1, 30, 0)
        ring.enqueue(f2, 20, 1)
        ring.enqueue(f1, 10, 2)
        ring.dequeue(5)
        assert ring.purge() == 55
        assert len(ring) == 0
        assert ring.dropped_total == 55
        assert ring.drops_by_reason == {"purged": 55}
        assert (f1.stats.queue_drops, f2.stats.queue_drops) == (35, 20)
        # conservation: enq == deq + queued + purged
        assert ring.enqueued_total == \
            ring.dequeued_total + len(ring) + 55

    def test_purge_missing_chain_is_noop(self):
        ring = PacketRing(capacity=10)
        assert ring.purge() == 0
        assert ring.dropped_total == 0
        assert ring.drops_by_reason == {}

    def test_head_wait_after_purge(self, config):
        ring = PacketRing(capacity=100)
        c1 = ServiceChain("c1", [nf("a", config)])
        f1 = Flow("f1")
        f1.chain = c1
        ring.enqueue(f1, 10, now_ns=5)
        ring.purge()
        assert ring.head_wait_ns(100) == 0
        ring.enqueue(Flow("plain"), 10, now_ns=50)
        assert ring.head_wait_ns(100) == 50
