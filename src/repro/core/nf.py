"""The network-function process model.

An :class:`NFProcess` is a schedulable task (one OS process / container in
the paper) whose run loop is libnf's (§3.2 "Relinquishing the CPU"):

    process a batch of at most 32 packets → check the shared-memory
    relinquish flag set by the NF Manager → if set, or if no packets
    remain, block on the semaphore; otherwise take the next batch.

Per-packet CPU cost comes from a :class:`~repro.nfs.cost_models.CostModel`;
processed packets go to the NF's Tx ring for the manager to ferry onwards.
The NF yields voluntarily when its Rx ring is empty, its Tx ring is full
(local backpressure, §3.3), or its I/O double-buffers are full (§3.4).

The NF also implements libnf's measurement duties: every millisecond it
samples the per-packet processing time of the current batch into a shared
sliding-window estimator the Monitor reads (§3.5).
"""

from __future__ import annotations

#: Digest-safety contract marker, verified by ``repro check --deep``
#: (SIM603) against ``repro.check.registry.MARKED_MODULES``.
__digest_safety__ = "digest-checked: per-NF counters feed the result payload"

import math
import numbers
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.metrics.histogram import SlidingWindowEstimator
from repro.platform.config import PlatformConfig
from repro.platform.packet import Flow, PacketSegment
from repro.platform.ring import PacketRing
from repro.sched.base import (
    FLAG_YIELD, IO_BLOCKED, RAN_OUT, TX_BLOCKED, USED_ALL, CoreTask,
    ExecResult,
)
from repro.sim.clock import SEC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nfs.cost_models import CostModel
    from repro.platform.chain import ServiceChain


#: Below this bound every integer is a float, so sums of integral batch
#: costs are exact and ``m * cyc`` equals ``m`` repeated additions.
_EXACT_FLOAT_INT = 2 ** 53


def full_batches(cycles_avail: float, c: float, bs: int, cap: int) -> int:
    """How many full batches libnf's loop runs, in closed form.

    The loop, with ``consumed`` starting at ``0.0`` and ``cyc = bs * c``::

        while m < cap:
            b = cycles_avail - consumed
            if b < c or b // c < bs:
                break
            consumed += cyc
            m += 1

    When ``cyc`` is integral and ``cap * cyc < 2**53`` every running sum
    is exact, so after ``m`` iterations ``consumed == float(m * cyc)``
    and the exit predicate can be evaluated at any ``m`` directly.  It is
    monotone in ``m``, so the count is found from the estimate
    ``cycles_avail // cyc`` and fixed up or down at the boundary.
    Returns 0 — the caller runs every batch through its general loop,
    which is always exact — when the closed form does not apply or the
    grant is not finite.
    """
    cyc = bs * c
    if cap <= 0 or cyc % 1 != 0 or cap * cyc >= _EXACT_FLOAT_INT \
            or not math.isfinite(cycles_avail):
        return 0
    m = int(cycles_avail // cyc)
    if m > cap:
        m = cap
    elif m < 0:
        m = 0
    while m > 0:
        b = cycles_avail - (m - 1) * cyc
        if b < c or b // c < bs:
            m -= 1
        else:
            break
    while m < cap:
        b = cycles_avail - m * cyc
        if b < c or b // c < bs:
            break
        m += 1
    return m


class NFProcess(CoreTask):
    """A network function running as its own scheduled process."""

    #: True when _forward emits exactly the packets it was handed, letting
    #: execute() track Tx-ring free space arithmetically.  Subclasses whose
    #: _forward may drop packets (CallbackNF's handler) must clear this so
    #: free space is re-read from the ring each batch.
    _forward_exact = True

    def __init__(
        self,
        name: str,
        cost_model: "CostModel",
        config: Optional[PlatformConfig] = None,
        weight: int = 1024,
        priority: float = 1.0,
        io=None,
        io_selector: Optional[Callable[[Flow], bool]] = None,
        busy_loop: bool = False,
    ):
        if isinstance(priority, bool) \
                or not isinstance(priority, numbers.Real) \
                or not (math.isfinite(priority) and priority >= 0):
            raise ValueError(f"priority must be a finite non-negative "
                             f"number, got {priority!r}")
        if not isinstance(busy_loop, bool):
            raise ValueError(
                f"busy_loop must be true or false, got {busy_loop!r}")
        super().__init__(name, weight)
        cfg = config if config is not None else PlatformConfig()
        self.config = cfg
        if cfg.nf_overhead_cycles > 0 and not busy_loop:
            from repro.nfs.cost_models import FixedCost, WithOverhead

            if isinstance(cost_model, FixedCost):
                cost_model = FixedCost(cost_model.cycles + cfg.nf_overhead_cycles)
            else:
                cost_model = WithOverhead(cost_model, cfg.nf_overhead_cycles)
        self.cost_model = cost_model
        #: NFVnice priority factor in the share formula (§3.2).
        self.priority = float(priority)
        self.batch_size = cfg.nf_batch_size
        self._ns_per_cycle = SEC / cfg.cpu_freq_hz
        self._cycles_per_ns = cfg.cpu_freq_hz / SEC

        self.rx_ring = PacketRing(
            cfg.ring_capacity, cfg.high_watermark, cfg.low_watermark,
            name=f"{name}.rx",
        )
        self.tx_ring = PacketRing(
            cfg.ring_capacity, cfg.high_watermark, cfg.low_watermark,
            name=f"{name}.tx",
        )

        #: Chains this NF belongs to, keyed by chain name -> (chain, position).
        self.chain_positions: Dict[str, Tuple["ServiceChain", int]] = {}
        #: Relinquish flag in shared memory, set by the NF Manager (§3.2).
        self.relinquish = False
        #: A misbehaving NF that never yields (§2.1's malicious-NF scenario).
        self.busy_loop = busy_loop
        #: Fault state (set by :mod:`repro.faults`): a *failed* NF crashed
        #: (its process is gone until a recovery policy restarts it); a
        #: *hung* NF still exists but stopped consuming — it holds its
        #: rings yet never responds to semaphore posts.
        self.failed = False
        self.hung = False
        #: Crash/restart bookkeeping surfaced in experiment results.
        self.restarts = 0
        #: Set by the manager when any upstream chain hop is on the other
        #: NUMA socket (the per-packet penalty is folded into cost_model).
        self.numa_remote_input = False

        # I/O (None, SyncIOContext or AsyncIOContext); the selector says
        # which flows require a disk write per packet.
        self.io = io
        self.io_selector = io_selector

        # Measurement state.
        #: Optional :class:`repro.obs.observer.Observer` (wired by the
        #: manager); its tracker records exact per-hop wait/service.
        self.obs = None
        self.processed_packets = 0
        self.wasted_processed = 0  # my output later dropped downstream
        self.service_estimator = SlidingWindowEstimator(
            cfg.service_window_ns, cfg.warmup_discard_samples
        )
        self._last_sample_ns = -(10 ** 18)
        self._cycle_credit = 0.0

    # ------------------------------------------------------------------
    # Chain membership
    # ------------------------------------------------------------------
    def join_chain(self, chain: "ServiceChain", position: int) -> None:
        self.chain_positions[chain.name] = (chain, position)

    @property
    def chains(self) -> List["ServiceChain"]:
        return [c for c, _pos in self.chain_positions.values()]

    def position_in(self, chain: "ServiceChain") -> int:
        return self.chain_positions[chain.name][1]

    # ------------------------------------------------------------------
    # Scheduling interface
    # ------------------------------------------------------------------
    def estimate_run_ns(self, now_ns: int) -> float:
        """Time until this NF would voluntarily block (0 = nothing to do)."""
        if self.failed or self.hung or self.rx_ring.sealed:
            return 0.0
        if self.busy_loop:
            return math.inf
        if self.relinquish:
            return 0.0
        if self.io is not None and self.io.blocked:
            return 0.0
        n = self.rx_ring._count
        if n == 0:
            return 0.0
        tx = self.tx_ring
        free = tx.capacity - tx._count
        if free < n:
            n = free
        if n == 0:
            return 0.0
        if self.io is not None and self.io.sync:
            # A sync write blocks after a single I/O packet; plan only up to
            # the first packet of an I/O flow.
            head = self.rx_ring.peek_head()
            if head is not None and self._needs_io(head.flow):
                n = 1
        cm = self.cost_model
        if type(cm) is FixedCost:
            cycles = n * cm.cycles - self._cycle_credit
        else:
            cycles = cm.peek_sum(n) - self._cycle_credit
        if cycles <= 0:
            cycles = 1.0
        return cycles * self._ns_per_cycle

    def deadline_ns(self, now_ns: int, default_slo_ns: int) -> Optional[int]:
        """Absolute SLO deadline of the head-of-ring packet, or None.

        ``origin_ns`` is stamped once at NIC arrival and carried through
        every hop, so a downstream NF inherits the end-to-end deadline of
        the oldest traffic it is holding (deadline inheritance).  The
        budget is the head flow's declared SLO class (``Flow.slo_ns``),
        falling back to the scheduler's ``default_slo_ns``.
        """
        head = self.rx_ring.peek_head()
        if head is None:
            return None
        slo = head.flow.slo_ns
        if slo is None:
            slo = default_slo_ns
        return head.origin_ns + slo

    def execute(self, now_ns: int, granted_ns: float) -> ExecResult:
        """libnf's batch loop for ``granted_ns`` of CPU time."""
        if self.failed or self.hung or self.rx_ring.sealed:
            # Killed/wedged mid-grant (or the ring went away): no work is
            # performed; the task blocks immediately.
            return ExecResult(0.0, RAN_OUT)
        if self.busy_loop:
            return ExecResult(granted_ns, USED_ALL)

        credit_in = self._cycle_credit
        cycles_avail = granted_ns * self._cycles_per_ns + credit_in
        consumed = 0.0
        outcome = USED_ALL
        # Hot-loop locals: the rings and I/O context are stable for the
        # whole grant; the cost model is re-read each batch because a fault
        # injector may swap it, but its *type* gates a no-dispatch inline
        # of FixedCost.consume_upto (the common case by far).
        rx_ring = self.rx_ring
        tx_ring = self.tx_ring
        io = self.io
        io_sync = io is not None and io.sync
        batch_size = self.batch_size
        sample_period = self.config.service_sample_period_ns
        # Nothing can flip the relinquish flag while execute() runs — the
        # whole grant happens inside one simulation event — so the per-batch
        # check of the original loop collapses to a single test up front.
        # Ring occupancies likewise only change through our own dequeues and
        # enqueues here (exactly k per batch, the reserved space cannot
        # drop), so they are tracked arithmetically instead of re-read.
        if self.relinquish:
            outcome = FLAG_YIELD
        else:
            qlen = rx_ring._count
            free = tx_ring.capacity - tx_ring._count
            # Without I/O the only per-batch side effects outside this
            # loop's arithmetic are the dequeue and the Tx enqueue — and
            # consecutive same-segment runs coalesce in the Tx ring anyway
            # (same flow/instant/origin), so deferring the forwarding to
            # one fused flush after the loop yields byte-identical ring
            # contents while paying for one ring-to-ring move per grant
            # instead of a dequeue and a forward per batch.  The budget,
            # credit and sampling arithmetic stays per-batch: float
            # operation order is digest-load-bearing.
            fuse = io is None and self._forward_exact
            pending = 0
            svc_ns = 0.0
            # Full batches in closed form.  While whole batches fit
            # (queue, Tx space and cycle budget all cover ``batch_size``),
            # each iteration of the general loop below performs exactly
            # ``budget = cycles_avail - consumed`` and ``consumed += cyc``
            # with ``cyc == batch_size * c``; full_batches() counts those
            # iterations without running them (see its docstring for when
            # that is bit-identical).  The remainder (partial batch, budget
            # exhaustion) and every case the closed form declines run in
            # the general loop.  Gated on a positive sample period so the
            # once-per-grant sampling shortcut below stays faithful.
            cm = self.cost_model
            if fuse and sample_period > 0 and type(cm) is FixedCost:
                bs = batch_size
                cyc = bs * cm.cycles
                cap = qlen // bs
                if free // bs < cap:
                    cap = free // bs
                m = full_batches(cycles_avail, cm.cycles, bs, cap)
                if m > 0:
                    consumed = float(m * cyc)
                    took = m * bs
                    qlen -= took
                    free -= took
                    pending = took
                    svc_ns = (cyc / bs) * self._ns_per_cycle
                    if now_ns - self._last_sample_ns >= sample_period:
                        self._last_sample_ns = now_ns
                        self.service_estimator.add(now_ns, svc_ns)
            while True:
                if io is not None and io.blocked:
                    outcome = IO_BLOCKED
                    break
                if qlen == 0:
                    outcome = RAN_OUT
                    break
                if free == 0:
                    outcome = TX_BLOCKED
                    break

                batch = batch_size
                if qlen < batch:
                    batch = qlen
                if free < batch:
                    batch = free
                if io_sync:
                    head = rx_ring.peek_head()
                    if head is not None and self._needs_io(head.flow):
                        batch = 1
                cm = self.cost_model
                if type(cm) is FixedCost:
                    c = cm.cycles
                    budget = cycles_avail - consumed
                    if budget < c:
                        k = 0
                    else:
                        k = int(budget // c)
                        if k > batch:
                            k = batch
                        cyc = k * c
                else:
                    k, cyc = cm.consume_upto(cycles_avail - consumed, batch)
                if k == 0:
                    # Out of cycles for even one more packet.
                    outcome = USED_ALL
                    break
                consumed += cyc
                qlen -= k
                svc_ns = (cyc / k) * self._ns_per_cycle
                if fuse:
                    pending += k
                    free -= k
                    io_full = False
                else:
                    io_full = self._forward(rx_ring.dequeue(k), now_ns,
                                            svc_ns)
                    if self._forward_exact:
                        free -= k
                    else:
                        free = tx_ring.capacity - tx_ring._count
                if now_ns - self._last_sample_ns >= sample_period:
                    self._last_sample_ns = now_ns
                    self.service_estimator.add(now_ns, svc_ns)
                if io_full:
                    outcome = IO_BLOCKED
                    break
            if pending:
                if self.obs is not None:
                    # Before the move restamps the descriptors.
                    self.obs.on_hop(self, rx_ring._segments, pending,
                                    now_ns, svc_ns)
                rx_ring.move_to(tx_ring, pending, int(now_ns))
                self.processed_packets += pending

        if outcome is USED_ALL:
            self._cycle_credit = cycles_avail - consumed
            used_ns = granted_ns
        else:
            self._cycle_credit = 0.0
            used_ns = max(0.0, consumed - credit_in) * self._ns_per_cycle
            used_ns = min(used_ns, granted_ns)
        return ExecResult(used_ns, outcome)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _needs_io(self, flow: Flow) -> bool:
        return self.io_selector is None or self.io_selector(flow)

    def _forward(self, segs: List[PacketSegment], now_ns: int,
                 svc_ns_per_pkt: float = 0.0) -> bool:
        """Hand processed segments to the Tx ring; returns True if the I/O
        context became full (NF must yield).

        ``segs`` come from :meth:`PacketRing.dequeue`; the Tx ring adopts
        each one (zero-copy), restamping ``enqueue_ns``, so the per-hop
        telemetry is recorded before the hand-off.
        """
        processed = 0
        for seg in segs:
            processed += seg.count
        if self.obs is not None and processed:
            self.obs.on_hop(self, segs, processed, now_ns, svc_ns_per_pkt)
        io_full = False
        io = self.io
        admit = self.tx_ring.admit
        now = int(now_ns)
        for seg in segs:
            if io is not None and self._needs_io(seg.flow):
                count = seg.count
                if not io.submit(count, count * seg.flow.pkt_size, now_ns):
                    io_full = True
            # Space was reserved (batch <= tx free), so this cannot drop.
            admit(seg, now)
        self.processed_packets += processed
        return io_full

    # ------------------------------------------------------------------
    # Fault recovery
    # ------------------------------------------------------------------
    def restart(self, now_ns: int, cold: bool = False) -> None:
        """Bring a failed/hung NF back to a runnable state.

        Called by a recovery policy once the replacement instance is up.
        ``cold`` models a restart that lost all in-memory state: the
        service-time estimator restarts from scratch (the Monitor falls
        back to the cost model's long-run mean until it re-warms), and any
        partially consumed cycle credit is forfeited.  A warm restart
        (checkpointed state) keeps the estimator history.
        """
        self.failed = False
        self.hung = False
        self.rx_ring.sealed = False
        self.rx_ring.dead = False
        self.tx_ring.sealed = False
        self.restarts += 1
        self._cycle_credit = 0.0
        if cold:
            self.service_estimator = SlidingWindowEstimator(
                self.config.service_window_ns,
                self.config.warmup_discard_samples,
            )
            self._last_sample_ns = -(10 ** 18)

    # ------------------------------------------------------------------
    # Introspection for the Monitor / experiments
    # ------------------------------------------------------------------
    @property
    def offered_arrivals(self) -> int:
        """Packets offered to this NF's Rx ring (accepted + dropped)."""
        return self.rx_ring.enqueued_total + self.rx_ring.dropped_total

    def service_time_ns(self, now_ns: int) -> float:
        """Estimated per-packet service time: windowed median with a
        fallback to the cost model's long-run mean before warm-up."""
        if self.config.service_estimator == "mean":
            est = self.service_estimator.mean(now_ns)
        else:
            est = self.service_estimator.median(now_ns)
        if est is not None:
            return est
        return self.cost_model.mean_cycles * self._ns_per_cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NFProcess({self.name!r}, rx={len(self.rx_ring)}, "
            f"tx={len(self.tx_ring)}, {self.state.value})"
        )


# Imported at the bottom: repro.nfs.catalog imports NFProcess from this
# module, so a top-of-file import would be circular whichever side loads
# first.  Down here both cycles resolve — NFProcess is already defined when
# the nested import comes back around.  execute() needs the concrete class
# for its no-dispatch FixedCost fast path.
from repro.nfs.cost_models import FixedCost  # noqa: E402
