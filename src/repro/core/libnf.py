"""libnf: the developer-facing NF API (paper Figure 6).

The paper's libnf "exports a simple, minimal interface (9 functions, 2
callbacks and 4 structures)"; the four shown in Figure 6 are reproduced
here.  :class:`CallbackNF` lets a network function be written as a packet
handler — "a simple bridge NF or a basic monitor NF is less than 100 lines"
(§3.1) — while inheriting all of :class:`~repro.core.nf.NFProcess`'s
scheduling behaviour (batching, relinquish checks, voluntary yields).

Handler-style NFs pay a Python call per segment, so they are meant for
functional tests and examples; high-rate experiments use plain
:class:`NFProcess` with a cost model.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.io import DiskDevice
from repro.core.nf import NFProcess
from repro.platform.packet import Flow


class LibnfAPI:
    """The I/O face of libnf bound to one NF instance.

    ``write_pkt`` corresponds to ``libnf_write_pkt`` (forward downstream);
    ``read_data``/``write_data`` enqueue asynchronous storage requests whose
    callback "runs in a separate thread context" — modelled as an event on
    the simulation loop at the device's completion time.
    """

    def __init__(self, nf: NFProcess, disk: Optional[DiskDevice] = None):
        self.nf = nf
        self.disk = disk
        self.storage_reads = 0
        self.storage_writes = 0

    # -- packet path ----------------------------------------------------
    def write_pkt(self, flow: Flow, count: int, now_ns: int) -> int:
        """Output ``count`` processed packets of ``flow``; returns accepted."""
        accepted, _dropped, _hi = self.nf.tx_ring.enqueue(flow, count, now_ns)
        return accepted

    # -- storage path (Figure 6 signatures, sans fd/buf plumbing) --------
    def read_data(self, size: int,
                  callback_fn: Callable[[object], None],
                  context: object = None) -> int:
        """Enqueue an async storage read; 0 on success, -1 if no device."""
        if self.disk is None:
            return -1
        self.storage_reads += 1
        self.disk.submit(size, lambda: callback_fn(context))
        return 0

    def write_data(self, size: int,
                   callback_fn: Callable[[object], None],
                   context: object = None) -> int:
        """Enqueue an async storage write; 0 on success, -1 if no device."""
        if self.disk is None:
            return -1
        self.storage_writes += 1
        self.disk.submit(size, lambda: callback_fn(context))
        return 0


class CallbackNF(NFProcess):
    """An NF defined by a per-segment packet handler.

    ``handler(api, flow, count, now_ns) -> int`` receives a run of packets
    and returns how many to forward (the rest are intentionally dropped,
    e.g. a firewall deny — counted separately from congestion drops).
    """

    #: The handler may forward fewer packets than it was handed, so Tx free
    #: space cannot be tracked arithmetically (see NFProcess._forward_exact).
    _forward_exact = False

    def __init__(self, name, cost_model,
                 handler: Callable[[LibnfAPI, Flow, int, int], int],
                 disk: Optional[DiskDevice] = None, **kwargs):
        super().__init__(name, cost_model, **kwargs)
        self.handler = handler
        self.api = LibnfAPI(self, disk)
        self.dropped_by_handler = 0

    def _forward(self, segs, now_ns: int,
                 svc_ns_per_pkt: float = 0.0) -> bool:
        # ``segs`` come from PacketRing.dequeue; the kept part of each is
        # handed to the Tx ring by reference (see NFProcess._forward).
        if self.obs is not None and segs:
            self.obs.on_hop(self, segs, sum(s.count for s in segs), now_ns,
                            svc_ns_per_pkt)
        io_full = False
        admit = self.tx_ring.admit
        now = int(now_ns)
        for seg in segs:
            flow = seg.flow
            count = seg.count
            self.processed_packets += count
            keep = self.handler(self.api, flow, count, now_ns)
            keep = max(0, min(int(keep), count))
            self.dropped_by_handler += count - keep
            if self.io is not None and self._needs_io(flow):
                ok = self.io.submit(count, count * flow.pkt_size, now_ns)
                if not ok:
                    io_full = True
            if keep > 0:
                seg.count = keep
                admit(seg, now)
        return io_full
