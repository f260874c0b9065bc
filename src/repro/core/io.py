"""Disk I/O: the asynchronous double-buffered path and the sync baseline.

Paper §3.4: "Using batched asynchronous I/O with double buffering, libnf
enables the NF implementation to put the processing of one or more packets
on hold, while continuing processing of other packets unhindered. ...
Double buffering enables libnf to service one set of I/O requests
asynchronously while the other buffer is filled up by the NF.  When both
buffers are full, libnf suspends the execution of the NF and yields the
CPU."

:class:`SyncIOContext` is the baseline an NF without libnf's I/O helpers
would exhibit — every write blocks the process for the full device round
trip, stalling all flows behind it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.clock import SEC, USEC
from repro.sim.engine import EventHandle, EventLoop


class DiskDevice:
    """A storage device with per-op latency and serialised bandwidth."""

    def __init__(
        self,
        loop: EventLoop,
        bandwidth_bps: float = 400e6 * 8,  # 400 MB/s SATA-SSD-class
        op_latency_ns: float = 20 * USEC,
        name: str = "disk0",
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.loop = loop
        self.bandwidth_bps = float(bandwidth_bps)
        self.op_latency_ns = float(op_latency_ns)
        self.name = name
        self.busy_until: float = 0.0
        self.ops = 0
        self.bytes_written = 0

    def transfer_ns(self, nbytes: int) -> float:
        """Service time of one request of ``nbytes``."""
        return self.op_latency_ns + nbytes * 8 * SEC / self.bandwidth_bps

    def submit(self, nbytes: int, callback: Callable[[], None]) -> float:
        """Queue a request; ``callback`` fires at completion.

        Requests are serviced in order (a single device queue); returns the
        absolute completion time.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        start = max(float(self.loop.now), self.busy_until)
        done = start + self.transfer_ns(nbytes)
        self.busy_until = done
        self.ops += 1
        self.bytes_written += nbytes
        self.loop.call_at(done, callback)
        return done

    def utilization(self, horizon_ns: float) -> float:
        """Busy fraction over a horizon (saturation indicator)."""
        if horizon_ns <= 0:
            return 0.0
        return min(1.0, self.busy_until / horizon_ns) if self.ops else 0.0


class AsyncIOContext:
    """libnf's batched, double-buffered asynchronous write path.

    Writes accumulate in the *fill* buffer; when it reaches
    ``buffer_requests`` it is flushed to the device while the other buffer
    fills.  ``blocked`` becomes True only when both buffers are full and a
    flush is still in flight — at that point the NF must yield.
    A periodic flush timer bounds the latency of trickle writes (the flush
    interval is "tunable by the NF implementation").
    """

    sync = False

    def __init__(
        self,
        loop: EventLoop,
        disk: DiskDevice,
        buffer_requests: int = 256,
        flush_interval_ns: int = 1_000_000,
        on_unblock: Optional[Callable[[], None]] = None,
    ):
        if buffer_requests <= 0:
            raise ValueError("buffer_requests must be positive")
        self.loop = loop
        self.disk = disk
        self.buffer_requests = int(buffer_requests)
        self.on_unblock = on_unblock
        # Fill buffer state (the in-flight buffer is implicit in _in_flight).
        self._fill_requests = 0
        self._fill_bytes = 0
        self._pending_requests = 0   # full buffer waiting for the device
        self._pending_bytes = 0
        self._in_flight = False
        self.flushes = 0
        self.requests = 0
        self.blocked_events = 0
        self._flusher: Optional[EventHandle] = None
        if flush_interval_ns and flush_interval_ns > 0:
            self._flusher = loop.call_every(int(flush_interval_ns),
                                            self._flush_trickle)

    # ------------------------------------------------------------------
    @property
    def blocked(self) -> bool:
        """True when the NF must suspend (both buffers full, flush busy)."""
        return self._pending_requests > 0 and self._fill_requests >= self.buffer_requests

    def submit(self, requests: int, nbytes: int, now_ns: int) -> bool:
        """Record ``requests`` writes totalling ``nbytes``.

        Writes land one buffer at a time, rotating through the double
        buffer as each fills.  Returns True while the NF may continue;
        False once both buffers are full (caller should stop processing
        and yield).  Overflow from an in-progress batch is banked in the
        fill buffer — those packets were already processed.
        """
        if requests <= 0:
            return not self.blocked
        self.requests += requests
        per_request = nbytes / requests
        remaining = requests
        while remaining > 0:
            space = self.buffer_requests - self._fill_requests
            if space <= 0:
                if self._pending_requests == 0:
                    self._rotate()
                    continue
                # Both buffers full: bank the rest and tell the NF to yield.
                self._fill_requests += remaining
                self._fill_bytes += per_request * remaining
                self.blocked_events += 1
                return False
            take = min(remaining, space)
            self._fill_requests += take
            self._fill_bytes += per_request * take
            remaining -= take
            if self._fill_requests >= self.buffer_requests \
                    and self._pending_requests == 0:
                self._rotate()
        return not self.blocked

    def _rotate(self) -> None:
        """Move the full fill buffer to pending and flush (device free)."""
        self._pending_requests = self._fill_requests
        self._pending_bytes = self._fill_bytes
        self._fill_requests = 0
        self._fill_bytes = 0
        self._submit_pending()

    def _submit_pending(self) -> None:
        if self._in_flight or self._pending_requests == 0:
            return
        self._in_flight = True
        self.flushes += 1
        self.disk.submit(self._pending_bytes, self._on_flush_done)

    def _on_flush_done(self) -> None:
        self._in_flight = False
        self._pending_requests = 0
        self._pending_bytes = 0
        if self._fill_requests >= self.buffer_requests:
            self._rotate()
        if self.on_unblock is not None:
            self.on_unblock()

    def _flush_trickle(self) -> None:
        """Flush a partially filled buffer so trickle writes complete."""
        if self._fill_requests > 0 and self._pending_requests == 0:
            self._rotate()

    def stop(self) -> None:
        if self._flusher is not None:
            self._flusher.cancel()


class SyncIOContext:
    """Blocking writes: the NF stalls for the device round trip per write.

    This is the paper's implicit baseline; with it, one I/O-bound flow
    head-of-line blocks the whole NF (§4.3.5 and Figure 14 contrast).
    """

    sync = True

    def __init__(
        self,
        loop: EventLoop,
        disk: DiskDevice,
        on_unblock: Optional[Callable[[], None]] = None,
    ):
        self.loop = loop
        self.disk = disk
        self.on_unblock = on_unblock
        self._blocked = False
        self.requests = 0
        self.blocked_events = 0

    @property
    def blocked(self) -> bool:
        return self._blocked

    def submit(self, requests: int, nbytes: int, now_ns: int) -> bool:
        """One blocking write; the NF must yield immediately afterwards."""
        if requests <= 0:
            return not self._blocked
        self.requests += requests
        self._blocked = True
        self.blocked_events += 1
        self.disk.submit(nbytes, self._on_done)
        return False

    def _on_done(self) -> None:
        self._blocked = False
        if self.on_unblock is not None:
            self.on_unblock()

    def stop(self) -> None:
        return None
