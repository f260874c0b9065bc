"""Tests for the disk model and the sync/async I/O contexts."""

import pytest

from repro.core.io import AsyncIOContext, DiskDevice, SyncIOContext
from repro.core.nf import NFProcess
from repro.nfs.cost_models import FixedCost
from repro.platform.packet import Flow
from repro.sched.base import ExecOutcome
from repro.sim.clock import MSEC, SEC, USEC


class TestDiskDevice:
    def test_transfer_time(self, loop):
        disk = DiskDevice(loop, bandwidth_bps=8e9, op_latency_ns=1000)
        # 1000 bytes at 1 GB/s = 1000 ns transfer + 1000 ns latency.
        assert disk.transfer_ns(1000) == pytest.approx(2000.0)

    def test_completion_event(self, loop):
        disk = DiskDevice(loop, bandwidth_bps=8e9, op_latency_ns=0)
        done = []
        disk.submit(1000, lambda: done.append(loop.now))
        loop.run_until(SEC)
        assert done == [1000]

    def test_requests_serialised(self, loop):
        disk = DiskDevice(loop, bandwidth_bps=8e9, op_latency_ns=0)
        done = []
        disk.submit(1000, lambda: done.append(loop.now))
        disk.submit(1000, lambda: done.append(loop.now))
        loop.run_until(SEC)
        assert done == [1000, 2000]

    def test_counters(self, loop):
        disk = DiskDevice(loop)
        disk.submit(100, lambda: None)
        disk.submit(200, lambda: None)
        assert disk.ops == 2
        assert disk.bytes_written == 300

    def test_invalid(self, loop):
        with pytest.raises(ValueError):
            DiskDevice(loop, bandwidth_bps=0)
        with pytest.raises(ValueError):
            DiskDevice(loop).submit(-1, lambda: None)


class TestAsyncIO:
    def test_not_blocked_until_both_buffers_full(self, loop):
        disk = DiskDevice(loop, bandwidth_bps=1.0, op_latency_ns=SEC)  # slow
        io = AsyncIOContext(loop, disk, buffer_requests=10,
                            flush_interval_ns=0)
        assert io.submit(10, 640, 0)      # fills buffer A -> flush starts
        assert io.submit(9, 576, 0)       # buffer B filling
        assert not io.blocked
        assert not io.submit(1, 64, 0)    # B full, A still in flight
        assert io.blocked

    def test_unblocks_on_flush_completion(self, loop):
        disk = DiskDevice(loop, bandwidth_bps=8e9, op_latency_ns=1000)
        unblocked = []
        io = AsyncIOContext(loop, disk, buffer_requests=10,
                            flush_interval_ns=0,
                            on_unblock=lambda: unblocked.append(loop.now))
        io.submit(20, 1280, 0)  # both buffers full
        assert io.blocked
        loop.run_until(SEC)
        assert not io.blocked
        assert unblocked  # callback fired

    def test_periodic_flush_drains_trickle(self, loop):
        disk = DiskDevice(loop, bandwidth_bps=8e9, op_latency_ns=0)
        io = AsyncIOContext(loop, disk, buffer_requests=1000,
                            flush_interval_ns=MSEC)
        io.submit(3, 192, 0)
        loop.run_until(2 * MSEC)
        assert disk.ops == 1
        assert disk.bytes_written == 192

    def test_batching_amortises_ops(self, loop):
        """256 writes -> 1 device op (the batching benefit of §3.4)."""
        disk = DiskDevice(loop, bandwidth_bps=8e9, op_latency_ns=0)
        io = AsyncIOContext(loop, disk, buffer_requests=256,
                            flush_interval_ns=0)
        for _ in range(256):
            io.submit(1, 64, 0)
        loop.run_until(SEC)
        assert disk.ops == 1

    def test_invalid_buffer_size(self, loop):
        with pytest.raises(ValueError):
            AsyncIOContext(loop, DiskDevice(loop), buffer_requests=0)


class TestSyncIO:
    def test_every_write_blocks(self, loop):
        disk = DiskDevice(loop, bandwidth_bps=8e9, op_latency_ns=1000)
        io = SyncIOContext(loop, disk)
        assert not io.submit(1, 64, 0)
        assert io.blocked
        loop.run_until(SEC)
        assert not io.blocked

    def test_unblock_callback(self, loop):
        disk = DiskDevice(loop, bandwidth_bps=8e9, op_latency_ns=1000)
        called = []
        io = SyncIOContext(loop, disk, on_unblock=lambda: called.append(1))
        io.submit(1, 64, 0)
        loop.run_until(SEC)
        assert called == [1]


class TestNFWithIO:
    def test_sync_io_nf_blocks_per_packet(self, loop, config):
        disk = DiskDevice(loop, bandwidth_bps=8e9, op_latency_ns=10 * USEC)
        io = SyncIOContext(loop, disk)
        nf = NFProcess("logger", FixedCost(260), config=config, io=io)
        nf.rx_ring.enqueue(Flow("f"), 100, 0)
        result = nf.execute(0, SEC)
        assert result.outcome is ExecOutcome.IO_BLOCKED
        assert nf.processed_packets == 1

    def test_async_io_nf_continues(self, loop, config):
        disk = DiskDevice(loop, bandwidth_bps=8e9, op_latency_ns=10 * USEC)
        io = AsyncIOContext(loop, disk, buffer_requests=1000,
                            flush_interval_ns=0)
        nf = NFProcess("logger", FixedCost(260), config=config, io=io)
        nf.rx_ring.enqueue(Flow("f"), 100, 0)
        result = nf.execute(0, SEC)
        assert result.outcome is ExecOutcome.RAN_OUT
        assert nf.processed_packets == 100

    def test_io_selector_limits_io_flows(self, loop, config):
        disk = DiskDevice(loop, bandwidth_bps=8e9, op_latency_ns=0)
        io = AsyncIOContext(loop, disk, buffer_requests=10 ** 6,
                            flush_interval_ns=0)
        nf = NFProcess(
            "logger", FixedCost(260), config=config, io=io,
            io_selector=lambda flow: flow.flow_id == "logged",
        )
        logged, plain = Flow("logged"), Flow("plain")
        nf.rx_ring.enqueue(logged, 10, 0)
        nf.rx_ring.enqueue(plain, 10, 1)
        nf.execute(0, SEC)
        assert io.requests == 10

    def test_estimate_zero_while_io_blocked(self, loop, config):
        disk = DiskDevice(loop, bandwidth_bps=1.0, op_latency_ns=SEC)
        io = SyncIOContext(loop, disk)
        nf = NFProcess("logger", FixedCost(260), config=config, io=io)
        nf.rx_ring.enqueue(Flow("f"), 10, 0)
        nf.execute(0, SEC)  # blocks on first write
        assert nf.estimate_run_ns(0) == 0.0
