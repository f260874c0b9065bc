"""Equivalence tests for the hot-path performance work.

Every optimisation in the perf overhaul claims *bit-identical* results:
segment coalescing must not change what a dequeue observes, the periodic
fast path must fire at the same instants as a cancel+reschedule loop,
batched arrival generation must emit the same counts as scalar draws,
the widened RNG draw-ahead in the cost models must consume the same
bit stream, ``ChoiceCost``'s draw must equal ``Generator.choice``'s,
the windowed ``WithOverhead`` search must take the same
packets, charge the same cycles and refill its buffer at the same points
as the probe-per-step search it replaced, the prefix-sum buffer that
keeps only its un-consumed window must hold the same logical prefix sums
as one that kept every entry until compaction, rings that adopt the
caller's descriptor must end exactly as the copy path did, and every
cost model's ``full_batches`` (the closed form for ``FixedCost``, the
window walk for ``WithOverhead``) must take the same batches, with the
same running sum, as one ``consume_upto`` per batch.  These tests pin
each claim directly, so a future change that quietly breaks digest
stability fails here first, with a readable diff, instead of as an
opaque campaign-digest mismatch.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nfs.cost_models import (
    _COMPACT,
    _RAW_REFILL,
    _REFILL,
    ChoiceCost,
    CostModel,
    ExponentialCost,
    FixedCost,
    NormalCost,
    ScaledCost,
    UniformCost,
    WithOverhead,
)
from repro.core.libnf import CallbackNF
from repro.obs.bus import EventBus
from repro.obs.observer import Observer
from repro.platform.config import PlatformConfig
from repro.platform.packet import Flow, PacketSegment
from repro.platform.ring import PacketRing
from repro.sim.engine import EventLoop
from repro.traffic.flows import FlowSpec


class FakeChain:
    def __init__(self, name):
        self.name = name


def flow(fid, chain=None):
    f = Flow(fid)
    f.chain = chain
    return f


# ----------------------------------------------------------------------
# Ring coalescing: a coalesced ring is observationally identical to an
# uncoalesced one — same per-packet FIFO stream, same counters.
# ----------------------------------------------------------------------

def _packet_stream(segments):
    """Flatten dequeued segments to per-packet (flow_id, enq, origin)."""
    out = []
    for seg in segments:
        out.extend([(seg.flow.flow_id, seg.enqueue_ns, seg.origin_ns)]
                   * seg.count)
    return out


ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("enq"),
                  st.integers(min_value=0, max_value=2),   # flow index
                  st.integers(min_value=1, max_value=30),  # count
                  st.integers(min_value=0, max_value=3)),  # time advance
        st.tuples(st.just("deq"),
                  st.integers(min_value=1, max_value=40)),
    ),
    min_size=1, max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=ops_strategy)
def test_coalescing_preserves_fifo_counts_timestamps(ops):
    chains = [FakeChain("A"), FakeChain("B")]
    flows_a = [flow(f"f{i}", chains[i % 2]) for i in range(3)]
    flows_b = [flow(f"f{i}", chains[i % 2]) for i in range(3)]
    ring_a = PacketRing(capacity=64, coalesce=True)
    ring_b = PacketRing(capacity=64, coalesce=False)
    now = 0
    for op in ops:
        if op[0] == "enq":
            _, fi, count, dt = op
            now += dt
            ra = ring_a.enqueue(flows_a[fi], count, now)
            rb = ring_b.enqueue(flows_b[fi], count, now)
            assert ra == rb
        else:
            _, n = op
            sa = _packet_stream(ring_a.dequeue(n))
            sb = _packet_stream(ring_b.dequeue(n))
            assert sa == sb
        assert len(ring_a) == len(ring_b)
    # Drain and compare the remainder, then every counter.
    assert _packet_stream(ring_a.dequeue(10**6)) == \
        _packet_stream(ring_b.dequeue(10**6))
    for attr in ("enqueued_total", "dropped_total", "dequeued_total"):
        assert getattr(ring_a, attr) == getattr(ring_b, attr)
    for fa, fb in zip(flows_a, flows_b):
        assert fa.stats.queue_drops == fb.stats.queue_drops


def test_coalescing_counts_hits_and_misses():
    ring = PacketRing(capacity=100)
    f = flow("f")
    ring.enqueue(f, 5, now_ns=10)
    ring.enqueue(f, 5, now_ns=10)   # same instant: merges
    ring.enqueue(f, 5, now_ns=20)   # new instant: appends
    assert ring.coalesce_hits == 1
    assert ring.coalesce_misses == 2
    segs = ring.dequeue(100)
    assert [s.count for s in segs] == [10, 5]


def test_forwarded_segment_coalesces_into_tail():
    """A segment forwarded at the same instant with the same origin merges
    into the tail run, exactly like a fresh enqueue."""
    ring = PacketRing(capacity=100)
    f = flow("f")
    ring.enqueue(f, 5, now_ns=10, origin_ns=3)
    seg = PacketSegment(f, 5, enqueue_ns=7, origin_ns=3)
    ring.enqueue(seg.flow, seg.count, now_ns=10, origin_ns=seg.origin_ns)
    assert ring.coalesce_hits == 1
    assert ring.coalesce_misses == 1
    segs = ring.dequeue(100)
    assert [(s.count, s.enqueue_ns, s.origin_ns) for s in segs] == \
        [(10, 10, 3)]


# ----------------------------------------------------------------------
# Zero-copy descriptor hand-off: rings that adopt the caller's segment
# (PacketRing.admit, PacketRing.move_to, NFProcess._forward) must be
# observationally identical to the copy path they replaced, kept here as
# the reference: dequeue (flow, count, enqueue_ns, origin_ns) tuples and
# re-enqueue each run into a freshly allocated segment.
# ----------------------------------------------------------------------

class _CopyRing(PacketRing):
    """The ring before descriptor hand-off: every enqueue allocates its
    own segment, and the NF path reads tuples from ``dequeue_batch``."""

    def enqueue(self, flow, count, now_ns, origin_ns=None):
        cur = self._count
        if count <= 0:
            return 0, 0, cur >= self.high_watermark
        if self.sealed or self.dead:
            reason = "sealed" if self.sealed else "nf_dead"
            self.dropped_total += count
            self.drops_by_reason[reason] = (
                self.drops_by_reason.get(reason, 0) + count)
            flow.stats.queue_drops += count
            if self.obs is not None:
                self.obs.on_ring_drop(self, count, cur, reason)
            return 0, count, cur >= self.high_watermark
        now = int(now_ns)
        origin = now if origin_ns is None else int(origin_ns)
        free = self.capacity - cur
        accepted = count if count <= free else free
        dropped = count - accepted
        if accepted > 0:
            tail = self._segments[-1] if self._segments else None
            if (tail is not None and self.coalesce and tail.flow is flow
                    and tail.enqueue_ns == now and tail.origin_ns == origin):
                tail.count += accepted
                self.coalesce_hits += 1
            else:
                self._segments.append(
                    PacketSegment(flow, accepted, now, origin))
                self.coalesce_misses += 1
            cur += accepted
            self._count = cur
            self.enqueued_total += accepted
        if dropped > 0:
            self.dropped_total += dropped
            self.drops_by_reason["full"] = (
                self.drops_by_reason.get("full", 0) + dropped)
            flow.stats.queue_drops += dropped
        if self.obs is not None:
            if accepted > 0:
                self.obs.on_ring_enqueue(self, accepted, cur)
            if dropped > 0:
                self.obs.on_ring_drop(self, dropped, cur, "full")
        return accepted, dropped, cur >= self.high_watermark

    def dequeue_batch(self, max_packets):
        if max_packets <= 0 or self.sealed:
            return []
        out = []
        remaining = max_packets
        taken_total = 0
        while remaining > 0 and self._segments:
            head = self._segments[0]
            n = head.count
            if n <= remaining:
                self._segments.popleft()
            else:
                n = remaining
                head.count -= n
            out.append((head.flow, n, head.enqueue_ns, head.origin_ns))
            remaining -= n
            taken_total += n
        if taken_total:
            self._count -= taken_total
            self.dequeued_total += taken_total
            if self.obs is not None:
                self.obs.on_ring_dequeue(self, taken_total, self._count)
        return out

    def copy_hop(self, dst, n, now):
        """The old hop: tuples out, one fresh enqueue per run."""
        return [dst.enqueue(fl, count, now, origin_ns=origin)
                for fl, count, _enq, origin in self.dequeue_batch(n)]


def _ring_state(ring):
    """Everything observable about a ring: contents and every counter."""
    return (
        [(s.flow.flow_id, s.count, s.enqueue_ns, s.origin_ns)
         for s in ring._segments],
        len(ring), ring.enqueued_total, ring.dropped_total,
        ring.dequeued_total, ring.coalesce_hits, ring.coalesce_misses,
        dict(ring.drops_by_reason),
    )


def _bus_log(bus):
    return [(ev.time_ns, ev.kind, ev.source, ev.args) for ev in bus.events]


#: A fault state held for the duration of one hop or move (None mostly,
#: so the bulk move's own path runs often).
faults = st.sampled_from([None, None, None, "src.sealed", "dst.sealed",
                          "dst.dead"])

handoff_ops = st.lists(
    st.one_of(
        # Arrivals carry a shared origin now and then, as forwarded runs
        # do, so runs of different instants can merge downstream.
        st.tuples(st.just("arrive"), st.integers(0, 2), st.integers(1, 30),
                  st.sampled_from([None, 0, 1]), st.integers(0, 2)),
        st.tuples(st.just("hop"), st.integers(1, 40), faults,
                  st.integers(0, 2)),
        st.tuples(st.just("move"), st.integers(1, 40), faults,
                  st.integers(0, 2)),
        st.tuples(st.just("drain"), st.integers(1, 40)),
    ),
    min_size=5, max_size=60,
)


@settings(max_examples=400, deadline=None)
@given(ops=handoff_ops, coalesce=st.booleans(), with_bus=st.booleans())
def test_handoff_matches_copy_reference(ops, coalesce, with_bus):
    """admit() and move_to() leave both rings, every counter, every
    drop reason, every flow's drop count and every bus event exactly as
    the copy path did — across partial accepts (the destination is
    smaller than the source), sealed and dead rings, an active bus and
    ``coalesce=False``."""
    loop = EventLoop()
    systems = []
    for ring_cls in (PacketRing, _CopyRing):
        flows = [flow(f"f{i}") for i in range(3)]
        src = ring_cls(capacity=64, name="src")
        dst = ring_cls(capacity=24, name="dst", coalesce=coalesce)
        bus = None
        if with_bus:
            bus = EventBus(loop)
            src.obs = dst.obs = Observer(bus=bus)
        systems.append((flows, src, dst, bus))
    now = 0
    for op in ops:
        outs = []
        if op[0] != "drain":
            now += op[-1]
        for flows, src, dst, bus in systems:
            copy = isinstance(src, _CopyRing)
            if op[0] == "arrive":
                outs.append(src.enqueue(flows[op[1]], op[2], now,
                                        origin_ns=op[3]))
                continue
            if op[0] == "drain":
                outs.append(_packet_stream(dst.dequeue(op[1])))
                continue
            fault = op[2]
            if fault is not None:
                ring_name, attr = fault.split(".")
                setattr(src if ring_name == "src" else dst, attr, True)
            if op[0] == "hop":
                if copy:
                    outs.append(src.copy_hop(dst, op[1], now))
                else:
                    outs.append([dst.admit(seg, now)
                                 for seg in src.dequeue(op[1])])
            else:
                # The caller reserves the space (the NF's fused flush).
                n = min(op[1], len(src), dst.free)
                if n and copy:
                    src.copy_hop(dst, n, now)
                elif n:
                    src.move_to(dst, n, now)
            src.sealed = dst.sealed = dst.dead = False
        if outs:
            assert outs[0] == outs[1]
        (fa, sa, da, ba), (fb, sb, db, bb) = systems
        assert _ring_state(sa) == _ring_state(sb)
        assert _ring_state(da) == _ring_state(db)
        assert [f.stats.queue_drops for f in fa] == \
            [f.stats.queue_drops for f in fb]
        if with_bus:
            assert _bus_log(ba) == _bus_log(bb)


def test_move_to_merges_and_splits_like_the_copy_path():
    """Runs of one flow and origin from different instants merge into
    the destination's tail, and a partial head is split, exactly as the
    copy path does it."""
    states = []
    for ring_cls in (PacketRing, _CopyRing):
        f, g = flow("f"), flow("g")
        src = ring_cls(capacity=64)
        dst = ring_cls(capacity=64)
        dst.enqueue(f, 4, 10, origin_ns=0)
        src.enqueue(f, 5, 1, origin_ns=0)
        src.enqueue(f, 5, 2, origin_ns=0)
        src.enqueue(g, 3, 2)
        if ring_cls is _CopyRing:
            src.copy_hop(dst, 12, 10)
        else:
            src.move_to(dst, 12, 10)
        states.append((_ring_state(src), _ring_state(dst)))
    assert states[0] == states[1]
    assert states[0][1][0] == [("f", 14, 10, 0), ("g", 2, 10, 2)]
    assert states[0][1][5:7] == (2, 2)      # coalesce hits, misses


def test_admit_adopts_the_descriptor():
    """The ring stores the caller's segment itself, restamped and cut to
    what fit; a coalesced admission stores nothing new."""
    ring = PacketRing(capacity=10)
    f = flow("f")
    seg = PacketSegment(f, 15, enqueue_ns=3, origin_ns=1)
    assert ring.admit(seg, 50) == (10, 5, True)
    assert ring.peek_head() is seg
    assert (seg.count, seg.enqueue_ns, seg.origin_ns) == (10, 50, 1)
    ring.dequeue(4)
    again = PacketSegment(f, 2, enqueue_ns=9, origin_ns=1)
    ring.admit(again, 50)
    assert list(ring._segments) == [seg] and seg.count == 8


handoff_keeps = st.lists(
    st.one_of(
        st.tuples(st.just("arrive"), st.integers(0, 2),
                  st.integers(1, 30), st.integers(0, 2)),
        st.tuples(st.just("forward"), st.integers(1, 40), st.integers(0, 2)),
        st.tuples(st.just("ferry"), st.integers(1, 40)),
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ops=handoff_keeps, num=st.integers(0, 4))
def test_callback_nf_partial_keep_matches_copy_reference(ops, num):
    """CallbackNF hands the kept part of each segment to its Tx ring by
    reference; rings, counters and handler drops equal the copy path."""
    def keep(api, fl, count, now_ns):
        return count * num // 4    # 0, a fraction, or everything

    cfg = PlatformConfig(ring_capacity=64)
    nf = CallbackNF("cb", FixedCost(100.0), keep, config=cfg)
    nf.tx_ring = PacketRing(capacity=24, name="cb.tx")  # partial accepts
    ref_rx = _CopyRing(capacity=64, name="cb.rx")
    ref_tx = _CopyRing(capacity=24, name="cb.tx")
    flows = [flow(f"f{i}") for i in range(3)]
    ref_flows = [flow(f"f{i}") for i in range(3)]
    ref_kept_out = 0
    now = 0
    for op in ops:
        if op[0] == "arrive":
            now += op[3]
            nf.rx_ring.enqueue(flows[op[1]], op[2], now)
            ref_rx.enqueue(ref_flows[op[1]], op[2], now)
        elif op[0] == "forward":
            now += op[2]
            nf._forward(nf.rx_ring.dequeue(op[1]), now)
            for fl, count, _enq, origin in ref_rx.dequeue_batch(op[1]):
                kept = keep(None, fl, count, now)
                ref_kept_out += count - kept
                if kept > 0:
                    ref_tx.enqueue(fl, kept, now, origin_ns=origin)
        else:
            nf.tx_ring.dequeue(op[1])
            ref_tx.dequeue(op[1])
        assert _ring_state(nf.rx_ring) == _ring_state(ref_rx)
        assert _ring_state(nf.tx_ring) == _ring_state(ref_tx)
        assert nf.dropped_by_handler == ref_kept_out
        assert [f.stats.queue_drops for f in flows] == \
            [f.stats.queue_drops for f in ref_flows]


# ----------------------------------------------------------------------
# Closed-form full batches: FixedCost.full_batches() must count exactly
# the iterations of the full-batch loop it replaced, and the running sum
# it implies (m * cyc) must be that loop's float sum bit for bit.
# ----------------------------------------------------------------------

_DECLINED = (0, 0.0, 0.0, 0.0)


def _loop_full_batches(avail, c, bs, cap):
    """Reference: the full-batch loop, one batch per iteration."""
    consumed = 0.0
    cyc = bs * c
    m = 0
    while m < cap:
        b = avail - consumed
        if b < c or b // c < bs:
            break
        consumed += cyc
        m += 1
    return m, consumed


def _closed_applies(c, bs, cap):
    cyc = bs * c
    return cap > 0 and cyc % 1 == 0 and cap * cyc < 2 ** 53


def _assert_closed_form(avail, c, bs, cap):
    got = FixedCost(c).full_batches(avail, bs, cap)
    ref_m, ref_consumed = _loop_full_batches(avail, c, bs, cap)
    if _closed_applies(c, bs, cap) and ref_m > 0:
        cyc = bs * c
        assert got == (ref_m, ref_consumed, cyc, cyc)
        assert got[1].hex() == ref_consumed.hex()
    else:
        # Declined: the general loop runs every batch.
        assert got == _DECLINED


costs = st.one_of(
    st.integers(1, 5000).map(float),                 # integral
    st.integers(1, 20000).map(lambda k: k / 4),      # quarter cycles
    st.integers(1, 3000).map(lambda k: k / 3),       # non-dyadic
    st.floats(0.01, 5000.0),                         # anything finite
)


@settings(max_examples=600, deadline=None)
@given(c=costs, bs=st.sampled_from([1, 2, 3, 8, 32]),
       cap=st.integers(0, 64), data=st.data())
def test_full_batches_matches_loop(c, bs, cap, data):
    cyc = bs * c
    boundary = data.draw(st.integers(0, cap + 2)) * cyc
    delta = data.draw(st.sampled_from(
        [0.0, 1.0, -1.0, 0.5, -0.5, 1e-9, -1e-9, c, -c, c / 2, cyc - 1]))
    avail = data.draw(st.one_of(
        st.just(boundary + delta), st.just(boundary),
        st.floats(-10.0, 1e7)))
    _assert_closed_form(avail, c, bs, cap)


@pytest.mark.parametrize("c, bs", [(100.0, 32), (37.25, 32), (0.5, 2),
                                   (5 / 3, 3), (2.0 ** 47 + 1, 32),
                                   (3.0, 1)])
def test_full_batches_at_every_boundary(c, bs):
    """Budgets exactly at, one ulp around and one cycle around each batch
    boundary, with 0 and 1 full batches and the 2**53 fallback.  At
    5/3 cycles a 3-packet batch sums to exactly 5.0, yet 5.0 // (5/3)
    is 2.0: the estimate overshoots and the boundary fix-up must step
    back."""
    cyc = bs * c
    for cap in (0, 1, 2, 5):
        for j in range(cap + 2):
            edge = j * cyc
            for avail in (edge, math.nextafter(edge, -math.inf),
                          math.nextafter(edge, math.inf), edge - c,
                          edge + c, edge - 1, edge + 1):
                _assert_closed_form(avail, c, bs, cap)


def test_full_batches_declines_sums_past_2_53():
    """2**47 + 1 cycles: one 32-packet batch sums to 2**52 + 32, two
    would pass 2**53, so the closed form takes cap 1 and declines cap 2."""
    c = 2.0 ** 47 + 1
    avail = 10.0 * 32 * c
    assert FixedCost(c).full_batches(avail, 32, 1) == (1, 32 * c, 32 * c,
                                                       32 * c)
    assert FixedCost(c).full_batches(avail, 32, 2) == _DECLINED


def test_full_batches_declines_non_finite_grant():
    for avail in (math.inf, -math.inf, math.nan):
        assert FixedCost(100.0).full_batches(avail, 32, 4) == _DECLINED


def _execute_trace(make_model, grants, monkeypatch, per_batch):
    """Grants to one NF, with its cost model's full_batches() as is or
    declining (every batch through the general loop): grant use,
    outcome, cycle credit, rings and service samples after each."""
    import repro.core.nf as nf_mod

    model = make_model()
    if per_batch:
        monkeypatch.setattr(type(model), "full_batches",
                            CostModel.full_batches)
    cfg = PlatformConfig(nf_overhead_cycles=0.0, cpu_freq_hz=1e9,
                         ring_capacity=512)
    nf = nf_mod.NFProcess("nf", model, config=cfg)
    f = flow("f")
    trace = []
    now = 0
    for grant in grants:
        now += 1000
        nf.rx_ring.enqueue(f, 200, now)
        res = nf.execute(now, grant)
        nf.tx_ring.dequeue(150)
        trace.append((res.used_ns, res.outcome, nf._cycle_credit,
                      nf.processed_packets, _ring_state(nf.rx_ring),
                      _ring_state(nf.tx_ring)))
    trace.append(nf.service_estimator.median(now))
    monkeypatch.undo()
    return trace


@pytest.mark.parametrize("cycles", [100.0, 37.25, 33.3])
def test_closed_form_execute_matches_general_loop(cycles, monkeypatch):
    """execute() with the closed form and with every batch run through
    the general loop (full_batches declining) agree on grant use, outcome,
    cycle credit, rings and service samples — at grants exactly on batch
    boundaries and just off them."""
    cyc = 32 * cycles
    grants = (cyc, 3 * cyc, 3 * cyc + 1, 2 * cyc - 1, cycles, 0.5,
              10 * cyc, 7 * cyc + cycles / 2)
    runs = [_execute_trace(lambda: FixedCost(cycles), grants, monkeypatch,
                           per_batch) for per_batch in (False, True)]
    assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# call_every: same fire instants and ordering as a cancel+reschedule loop.
# ----------------------------------------------------------------------

def test_call_every_matches_manual_reschedule():
    loop_a, loop_b = EventLoop(), EventLoop()
    fires_a, fires_b = [], []

    loop_a.call_every(7, lambda: fires_a.append(loop_a.now))

    def rearm():
        fires_b.append(loop_b.now)
        loop_b.call_at(loop_b.now + 7, rearm)

    loop_b.call_at(7, rearm)
    loop_a.run_until(100)
    loop_b.run_until(100)
    assert fires_a == fires_b == list(range(7, 101, 7))


def test_call_every_interleaves_like_reschedule():
    """Tie-breaking: the periodic re-arm consumes a seq number *before*
    its callback runs, exactly like reschedule-then-work did — so a
    one-shot scheduled from inside the callback at the same future
    instant fires *after* the next periodic tick, in both worlds."""
    def drive(use_call_every):
        loop = EventLoop()
        order = []

        def on_tick():
            if not use_call_every:
                # Reschedule-first: the re-arm consumes its seq number
                # before the callback body runs.
                loop.call_at(loop.now + 10, on_tick)
            order.append(("tick", loop.now))
            # One-shot at the next tick's instant, scheduled after the
            # re-arm consumed its seq — loses the tie in both worlds.
            loop.call_at(loop.now + 10,
                         lambda: order.append(("shot", loop.now)))

        if use_call_every:
            loop.call_every(10, on_tick)
        else:
            loop.call_at(10, on_tick)
        loop.run_until(45)
        return order

    # In both variants the re-arm wins the tie at each instant; the
    # orderings must agree event-for-event.
    assert drive(True) == drive(False)


def test_call_every_cancel_stops_firing():
    loop = EventLoop()
    fires = []
    handle = loop.call_every(5, lambda: fires.append(loop.now))
    loop.run_until(20)
    handle.cancel()
    loop.run_until(100)
    assert fires == [5, 10, 15, 20]
    assert loop.pending == 0


def test_call_every_first_offset():
    loop = EventLoop()
    fires = []
    loop.call_every(10, lambda: fires.append(loop.now), first=3)
    loop.run_until(40)
    assert fires == [3, 13, 23, 33]


def test_call_every_rejects_bad_period():
    loop = EventLoop()
    with pytest.raises(ValueError):
        loop.call_every(0, lambda: None)


# ----------------------------------------------------------------------
# call_at integer fast path: ns-scale times beyond 2**53 must not round.
# ----------------------------------------------------------------------

def test_call_at_integer_precision_beyond_float53():
    """2**53 ns is ~104 simulated days; a float detour there loses the
    low bit and adjacent events collapse onto one instant.  Integer
    inputs must bypass float math entirely."""
    loop = EventLoop()
    base = 2**53  # first integer where float spacing exceeds 1
    fired = []
    loop.call_at(base + 1, lambda: fired.append(loop.now))
    loop.call_at(base + 3, lambda: fired.append(loop.now))
    loop.run_until(base + 10)
    assert fired == [base + 1, base + 3]
    # float(2**53 + 1) == float(2**53): the fast path must not have
    # taken the float branch.
    assert float(base + 1) == float(base)  # the hazard being defended


def test_call_at_float_still_ceils():
    loop = EventLoop()
    times = []
    loop.call_at(10.2, lambda: times.append(loop.now))
    loop.call_at(11.0, lambda: times.append(loop.now))
    loop.run_until(20)
    assert times == [11, 11]


def test_bool_time_not_treated_as_int_fast_path():
    # bool is an int subclass but `type(x) is int` excludes it; the slow
    # path still handles it correctly.
    loop = EventLoop()
    fired = []
    loop.call_at(True, lambda: fired.append(loop.now))
    loop.run_until(5)
    assert fired == [1]


# ----------------------------------------------------------------------
# Batched arrivals: next_count() ≡ packets_this_tick(), tick for tick.
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    rate=st.floats(min_value=0.0, max_value=5e6,
                   allow_nan=False, allow_infinity=False),
    ticks=st.integers(min_value=1, max_value=700),
)
def test_cbr_batch_matches_scalar(rate, ticks):
    dt = 50_000
    a = FlowSpec(Flow("a"), rate)
    b = FlowSpec(Flow("b"), rate)
    scalar = [a.packets_this_tick(dt) for _ in range(ticks)]
    batched = [b.next_count(dt) for _ in range(ticks)]
    assert scalar == batched


@settings(max_examples=60, deadline=None)
@given(
    rate1=st.floats(min_value=1.0, max_value=5e6),
    rate2=st.floats(min_value=1.0, max_value=5e6),
    switch=st.integers(min_value=1, max_value=400),
    ticks=st.integers(min_value=2, max_value=700),
)
def test_cbr_batch_survives_midrun_rate_change(rate1, rate2, switch, ticks):
    """Figure 15a changes rate_pps mid-run; the batch must replay the
    carry recurrence and keep emitting the scalar sequence."""
    dt = 50_000
    a = FlowSpec(Flow("a"), rate1)
    b = FlowSpec(Flow("b"), rate1)
    scalar, batched = [], []
    for i in range(ticks):
        if i == switch:
            a.rate_pps = rate2
            b.rate_pps = rate2
        scalar.append(a.packets_this_tick(dt))
        batched.append(b.next_count(dt))
    assert scalar == batched


@settings(max_examples=40, deadline=None)
@given(
    rate=st.floats(min_value=1.0, max_value=2e6),
    ticks=st.integers(min_value=1, max_value=600),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_poisson_batch_matches_scalar(rate, ticks, seed):
    dt = 50_000
    a = FlowSpec(Flow("a"), rate, pattern="poisson")
    b = FlowSpec(Flow("b"), rate, pattern="poisson")
    rng_a = np.random.default_rng(seed)
    rng_b = np.random.default_rng(seed)
    scalar = [a.packets_this_tick(dt, rng_a) for _ in range(ticks)]
    batched = [b.next_count(dt, rng_b, rng_batch=True)
               for _ in range(ticks)]
    assert scalar == batched


@settings(max_examples=30, deadline=None)
@given(
    rate1=st.floats(min_value=1.0, max_value=2e6),
    rate2=st.floats(min_value=1.0, max_value=2e6),
    switch=st.integers(min_value=1, max_value=300),
    ticks=st.integers(min_value=2, max_value=600),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_poisson_batch_rate_change_keeps_stream_position(
        rate1, rate2, switch, ticks, seed):
    """After a mid-batch rate change the generator must land exactly
    where scalar draws would have left it — including every later draw."""
    dt = 50_000
    a = FlowSpec(Flow("a"), rate1, pattern="poisson")
    b = FlowSpec(Flow("b"), rate1, pattern="poisson")
    rng_a = np.random.default_rng(seed)
    rng_b = np.random.default_rng(seed)
    scalar, batched = [], []
    for i in range(ticks):
        if i == switch:
            a.rate_pps = rate2
            b.rate_pps = rate2
        scalar.append(a.packets_this_tick(dt, rng_a))
        batched.append(b.next_count(dt, rng_b, rng_batch=True))
    assert scalar == batched


def test_poisson_shared_rng_falls_back_to_scalar():
    """With rng_batch=False (several poisson specs share one generator)
    next_count must stay a scalar draw so interleaving is preserved."""
    spec = FlowSpec(Flow("a"), 1e6, pattern="poisson")
    rng = np.random.default_rng(7)
    spec.next_count(50_000, rng, rng_batch=False)
    assert spec._batch is None


# ----------------------------------------------------------------------
# Cost-model RNG draw-ahead: one wide draw ≡ many narrow draws.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("sampler", [
    lambda r, n: r.normal(1000.0, 100.0, size=n),
    lambda r, n: r.uniform(50.0, 500.0, size=n),
    lambda r, n: r.exponential(250.0, size=n),
    lambda r, n: ChoiceCost([100.0, 200.0, 400.0], [0.5, 0.3, 0.2],
                            rng=r)._draw_block(n),
])
def test_numpy_samplers_consume_stream_per_value(sampler):
    """The raw draw-ahead pool assumes numpy samplers consume the bit
    stream value-by-value: one size-8192 draw equals eight size-1024
    draws.  Pin that for every distribution the catalog uses."""
    rng_wide = np.random.default_rng(42)
    rng_narrow = np.random.default_rng(42)
    wide = sampler(rng_wide, _RAW_REFILL)
    narrow = np.concatenate([
        sampler(rng_narrow, _REFILL)
        for _ in range(_RAW_REFILL // _REFILL)
    ])
    assert np.array_equal(wide, narrow)


@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       k=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_choice_draws_match_generator_choice(data, k, seed):
    """ChoiceCost's comparison-count draw against ``Generator.choice``
    itself: the same values and the same bit-generator state after every
    block, for 1-8 values, zero-probability entries, uniform defaults and
    block sizes on both sides of the raw pool's width."""
    values = data.draw(st.lists(
        st.floats(0.5, 1e4, allow_nan=False), min_size=k, max_size=k))
    weights = data.draw(st.lists(st.integers(0, 5), min_size=k, max_size=k)
                        .filter(any))
    uniform = data.draw(st.booleans())
    probs = None if uniform else [w / sum(weights) for w in weights]
    model = ChoiceCost(values, probs, rng=np.random.default_rng(seed))
    ref = np.random.default_rng(seed)
    p = model.probabilities
    sizes = data.draw(st.lists(
        st.sampled_from([0, 1, 7, _REFILL, _RAW_REFILL - 1, _RAW_REFILL,
                         _RAW_REFILL + 1, 20_000]),
        min_size=1, max_size=4))
    for n in sizes:
        got = model._draw_block(n)
        want = ref.choice(np.asarray(values, dtype=float), size=n, p=p)
        assert np.array_equal(got, want)
        assert model._rng.bit_generator.state == ref.bit_generator.state
    # Through the draw-ahead pool the stream is the same, one value at a
    # time, across the pool's refill boundary.
    pooled = ChoiceCost(values, probs, rng=np.random.default_rng(seed))
    total = sum(sizes) + _RAW_REFILL + 3
    stream = np.random.default_rng(seed).choice(
        np.asarray(values, dtype=float), size=total, p=p)
    got = np.concatenate([pooled._draw(n) for n in sizes]
                         + [pooled._draw(_RAW_REFILL + 3)])
    assert np.array_equal(got, stream)


# ----------------------------------------------------------------------
# Grant-level batch fusion in NFProcess.execute: deferring the
# dequeue/forward to one flush per grant must not change any result.
# ----------------------------------------------------------------------

def test_fused_execute_matches_unfused(monkeypatch):
    """_forward_exact=False forces the per-batch (unfused) path; a full
    scenario must produce the identical digest either way."""
    from repro.analysis.export import result_to_dict
    from repro.core.nf import NFProcess
    from repro.experiments.fig07_single_core_chain import run_case
    from repro.runner.digest import digest_of

    fused = digest_of(result_to_dict(run_case("NORMAL", "NFVnice", 0.05)))
    monkeypatch.setattr(NFProcess, "_forward_exact", False)
    unfused = digest_of(result_to_dict(run_case("NORMAL", "NFVnice", 0.05)))
    assert fused == unfused


@pytest.mark.parametrize("make", [
    lambda rng: NormalCost(1000.0, 100.0, rng=rng),
    lambda rng: UniformCost(50.0, 500.0, rng=rng),
    lambda rng: ExponentialCost(250.0, rng=rng),
    lambda rng: ChoiceCost([100.0, 200.0, 400.0], [0.5, 0.3, 0.2],
                           rng=rng),
])
def test_buffered_cost_pool_is_stream_transparent(make):
    """consume/peek/consume_upto sequences are bit-identical with and
    without the raw draw-ahead pool."""
    fast = make(np.random.default_rng(11))
    ref = make(np.random.default_rng(11))
    ref._draw = ref._draw_block  # old behaviour: no widened pool
    budgets = [1_000.0, 50_000.0, 123.0, 9_999.5, 2**20 * 1.0]
    for i in range(200):
        b = budgets[i % len(budgets)]
        assert fast.peek_sum(7) == ref.peek_sum(7)
        assert fast.consume_upto(b, 32) == ref.consume_upto(b, 32)
        assert fast.consume(3) == ref.consume(3)


# ----------------------------------------------------------------------
# Windowed WithOverhead search: one list read of the buffered prefix sums
# per batch must equal the probe-per-step search bit for bit — same k,
# same cycles, and the same _ensure refill/compaction points (which fix
# the float grouping of every later prefix sum for non-integer models).
# ----------------------------------------------------------------------

def _probe_consume_upto(self, budget_cycles, max_packets):
    """Reference: the search as it was, one ``peek_sum`` call per probe."""
    if max_packets <= 0 or budget_cycles <= 0:
        return 0, 0.0
    lo, hi = 0, max_packets
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if self.peek_sum(mid) <= budget_cycles:
            lo = mid
        else:
            hi = mid - 1
    if lo == 0:
        return 0, 0.0
    return lo, self.inner.consume(lo) + lo * self.overhead


class _ProbeWithOverhead(WithOverhead):
    consume_upto = _probe_consume_upto


_INNERS = {
    "choice": lambda rng: ChoiceCost([120.0, 270.0, 550.0], rng=rng),
    "normal": lambda rng: NormalCost(270.0, 90.0, rng=rng),
    "uniform": lambda rng: UniformCost(100.0, 400.0, rng=rng),
    "exponential": lambda rng: ExponentialCost(300.0, rng=rng),
}


def _pair(inner, overhead, scaled, seed=5):
    fast = WithOverhead(_INNERS[inner](np.random.default_rng(seed)), overhead)
    ref = _ProbeWithOverhead(_INNERS[inner](np.random.default_rng(seed)),
                             overhead)
    if scaled:
        return fast, ref, ScaledCost(fast, 1.7), ScaledCost(ref, 1.7)
    return fast, ref, fast, ref


def _same_buffer(fast, ref):
    """Same consumed position and the same prefix sums buffered: the two
    searches refilled (and compacted) at exactly the same points."""
    assert fast.inner._pos == ref.inner._pos
    assert np.array_equal(fast.inner._cum, ref.inner._cum)


def _step(op, fast, ref):
    """Apply one operation to both models; return packets consumed."""
    kind = op[0]
    if kind == "peek":
        assert fast.peek_sum(op[1]) == ref.peek_sum(op[1])
        return 0
    if kind == "consume":
        assert fast.consume(op[1]) == ref.consume(op[1])
        return op[1]
    if kind == "edge":
        # A budget exactly on (or one ULP under) the total of the next k
        # packets: where a differently-rounded comparison would diverge.
        _, k, max_packets, below = op
        budget = fast.peek_sum(k)
        assert budget == ref.peek_sum(k)
        if below:
            budget = float(np.nextafter(budget, 0.0))
    else:
        _, budget, max_packets = op
    got = fast.consume_upto(budget, max_packets)
    want = ref.consume_upto(budget, max_packets)
    assert got == want
    assert type(got[1]) is type(want[1])
    return got[0]


def _random_op(r):
    roll = r.random()
    max_packets = 32 if r.random() < 0.8 else int(r.integers(1, 33))
    if roll < 0.01:
        # estimate_run_ns-style look-ahead far past the 32-packet window.
        return ("peek", int(r.integers(33, 3000)))
    if roll < 0.03:
        return ("consume", int(r.integers(1, 200)))
    if roll < 0.28:
        return ("edge", int(r.integers(1, 33)), max_packets,
                bool(r.random() < 0.5))
    budget = r.choice([0.0, 50.0, float(r.uniform(0.0, 2000.0)),
                       float(r.uniform(0.0, 8000.0)),
                       float(r.uniform(0.0, 30_000.0)), 1e12])
    return ("budget", float(budget), max_packets)


@pytest.mark.parametrize("overhead", [100.0, 37.25])
@pytest.mark.parametrize("inner", sorted(_INNERS))
@pytest.mark.parametrize("scaled", [False, True], ids=["plain", "scaled"])
def test_windowed_overhead_search_matches_probe_search(inner, overhead,
                                                       scaled):
    """Long mixed sequences (zero, partial and full batches, exact-edge
    budgets, wide peeks) across many 1024-draw refills and at least one
    compaction give bit-identical results and buffers after every step."""
    fast, ref, top_fast, top_ref = _pair(inner, overhead, scaled)
    r = np.random.default_rng(2024)
    consumed = 0
    while consumed <= _COMPACT + 5 * _REFILL:
        consumed += _step(_random_op(r), top_fast, top_ref)
        _same_buffer(fast, ref)
    # Packets consumed since the last rebase: fewer than all of them, so
    # the prefix sums were rebased (compacted) at least once.
    assert fast.inner._off + fast.inner._pos < consumed


def _holding(inner, held):
    """A fast/reference pair with exactly ``held`` packets buffered."""
    fast, ref, _, _ = _pair(inner, 100.0, False)
    for model in (fast, ref):
        model.consume(1)
        model.consume(len(model.inner._cum) - 1 - model.inner._pos - held)
    _same_buffer(fast, ref)
    return fast, ref


@pytest.mark.parametrize("inner", sorted(_INNERS))
def test_windowed_search_refills_only_where_probe_search_does(inner):
    """20 packets buffered, budget for 3: the probe search never looks
    past the buffer, so it must not refill — and the wide peek that
    follows must then split the prefix sums at the same draw."""
    fast, ref = _holding(inner, 20)
    budget = fast.peek_sum(3)
    assert fast.consume_upto(budget, 32) == ref.consume_upto(budget, 32)
    _same_buffer(fast, ref)
    assert fast.peek_sum(3000) == ref.peek_sum(3000)
    _same_buffer(fast, ref)


@pytest.mark.parametrize("held", [20, 40])
@pytest.mark.parametrize("inner", sorted(_INNERS))
def test_full_batch_refills_only_where_probe_search_does(inner, held):
    """32 packets asked for, a budget that covers them all.  With 20
    held the search must refill where the probe search does; with 40 the
    full-batch probe answers from the buffer, with no refill."""
    fast, ref = _holding(inner, held)
    buffered = len(fast.inner._cum)
    got = fast.consume_upto(1e12, 32)
    assert got == ref.consume_upto(1e12, 32)
    assert got[0] == 32
    _same_buffer(fast, ref)
    assert (len(fast.inner._cum) == buffered) == (held >= 32)
    assert fast.peek_sum(3000) == ref.peek_sum(3000)
    _same_buffer(fast, ref)


@pytest.mark.parametrize("held", [32, 40])
@pytest.mark.parametrize("inner", sorted(_INNERS))
def test_full_batch_probe_takes_exact_budget_without_window_read(inner,
                                                                  held):
    """A full batch whose total equals the budget exactly, with exactly
    32 or more packets held, is the probe's to answer: the results match
    the probe search and no window is read as a list.  (Had the probe
    declined, the search would return the same answer, only slower.)"""
    fast, ref = _holding(inner, held)
    budget = fast.peek_sum(32)
    reads = []

    class CountingBuffer(np.ndarray):
        def tolist(self):
            reads.append(len(self))
            return super().tolist()

    fast.inner._cum = fast.inner._cum.view(CountingBuffer)
    got = fast.consume_upto(budget, 32)
    assert got == ref.consume_upto(budget, 32) == (32, budget)
    assert reads == []
    _same_buffer(fast, ref)


# ----------------------------------------------------------------------
# The buffer keeps only its un-consumed window: against a buffer that
# keeps every prefix sum since the last rebase, the logical windows
# ``cum[pos:]`` (hence every result) stay bit-identical, and the rebase
# happens after the same consumed packet.
# ----------------------------------------------------------------------

def _untrimmed_ensure(self, n):
    """Reference: append each refill to the whole buffer and rebase once
    more than ``_COMPACT`` entries are consumed, dropping nothing before."""
    have = len(self._cum) - 1 - self._pos
    if have >= n:
        return
    need = max(n - have, _REFILL)
    fresh = self._draw(need)
    fresh = np.maximum(fresh, 1.0)
    ext = self._cum[-1] + np.cumsum(fresh)
    self._cum = np.concatenate([self._cum, ext])
    if self._pos > _COMPACT:
        base = self._cum[self._pos]
        self._cum = self._cum[self._pos:] - base
        self._pos = 0


@pytest.mark.parametrize("overhead", [100.0, 37.25])
@pytest.mark.parametrize("inner", sorted(_INNERS))
def test_trimmed_buffer_matches_untrimmed_buffer(inner, overhead):
    """The windowed search on the trimmed buffer against the probe search
    on the untrimmed one, over three rebases: same results, same logical
    window and logical position after every step."""
    fast = WithOverhead(_INNERS[inner](np.random.default_rng(9)), overhead)
    old = _ProbeWithOverhead(_INNERS[inner](np.random.default_rng(9)),
                             overhead)
    old.inner._ensure = _untrimmed_ensure.__get__(old.inner)
    r = np.random.default_rng(77)
    rebases = 0
    while rebases < 3:
        before = old.inner._pos
        taken = _step(_random_op(r), fast, old)
        if old.inner._pos < before + taken:
            rebases += 1
        f, o = fast.inner, old.inner
        assert f._off + f._pos == o._pos
        assert np.array_equal(f._cum[f._pos:], o._cum[o._pos:])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       inner=st.sampled_from(sorted(_INNERS)),
       overhead=st.sampled_from([0.0, 37.25, 100.0]),
       scaled=st.booleans(),
       n_ops=st.integers(1, 400))
def test_windowed_overhead_search_property(seed, inner, overhead, scaled,
                                           n_ops):
    fast, ref, top_fast, top_ref = _pair(inner, overhead, scaled, seed=seed)
    r = np.random.default_rng(seed)
    for _ in range(n_ops):
        _step(_random_op(r), top_fast, top_ref)
        _same_buffer(fast, ref)


# ----------------------------------------------------------------------
# Grant-level full batches: WithOverhead.full_batches() walks the buffered
# window and must take exactly the leading full batches that one
# consume_upto call per batch takes inside that window, with the same
# running sum, and leave the buffer and the generator where they leave
# them.  The batches after it run through consume_upto on both sides.
# ----------------------------------------------------------------------

class _PerBatchWithOverhead(WithOverhead):
    full_batches = CostModel.full_batches


def _grant(model, avail, batch, held):
    """One grant over ``held`` packets as execute() runs it: full_batches()
    first, then one consume_upto per batch until one takes nothing."""
    took = model.full_batches(avail, batch, held // batch)
    consumed = took[1]
    held -= took[0] * batch
    calls = []
    while held > 0:
        k, used = model.consume_upto(avail - consumed, min(batch, held))
        calls.append((k, used))
        if k == 0:
            break
        consumed += used
        held -= k
    return took, calls, consumed


def _per_batch_grant(model, avail, batch, held):
    """Reference: the same grant with one consume_upto per batch.  Its
    leading full batches, each taken with a full batch buffered when it
    started, are the ones full_batches() must take."""
    inner = model.inner
    cap = held // batch
    m, consumed, first, last = 0, 0.0, 0.0, 0.0
    lead = None
    calls = []
    while held > 0:
        in_window = len(inner._cum) - 1 - inner._pos >= batch
        k, used = model.consume_upto(avail - consumed, min(batch, held))
        if lead is None and not (m < cap and in_window and k == batch):
            lead = (m, consumed, first, last)
        if lead is None:
            if m == 0:
                first = used
            last = used
            m += 1
        else:
            calls.append((k, used))
        if k == 0:
            break
        consumed += used
        held -= k
    if lead is None:
        lead = (m, consumed, first, last)
    return lead, calls, consumed


def _same_state(fast, ref):
    """Same logical position, rebase count, window and generator state."""
    f, r = fast.inner, ref.inner
    assert (f._pos, f._off) == (r._pos, r._off)
    assert np.array_equal(f._cum[f._pos:], r._cum[r._pos:])
    assert f._raw_pos == r._raw_pos
    assert f._rng.bit_generator.state == r._rng.bit_generator.state


def _exact_budget(model, batch, j):
    """The running sum of the next ``j`` full batches, as full_batches()
    adds it, or None when the window holds fewer."""
    cum, pos = model.inner._cum, model.inner._pos
    if len(cum) - 1 - pos < j * batch:
        return None
    total = 0.0
    for i in range(j):
        p = pos + i * batch
        total += (cum.item(p + batch) - cum.item(p)) + batch * model.overhead
    return total


def _grant_op(model, r, batch):
    """A random grant: (avail, held)."""
    held = int(r.integers(0, 700))
    roll = r.random()
    mean = model.mean_cycles
    if roll < 0.3:
        # Exactly the first j batches' total, or one ulp under it.
        avail = _exact_budget(model, batch, int(r.integers(1, 13)))
        if avail is not None and r.random() < 0.5:
            avail = math.nextafter(avail, -math.inf)
    elif roll < 0.4:
        avail = float(r.choice([0.0, -1.0, -math.inf, math.inf, math.nan]))
    else:
        avail = float(r.uniform(0.0, 20 * batch * mean))
    if avail is None:
        avail = float(r.uniform(0.0, 4 * batch * mean))
    return avail, held


def _shift_op(model, r, batch):
    """Move the window: a wide peek (refills ahead), a consume, or a drain
    that leaves fewer than one batch buffered."""
    roll = r.random()
    if roll < 0.3:
        return "peek", int(r.integers(1, 3000))
    if roll < 0.6:
        return "consume", int(r.integers(1, 200))
    held = len(model.inner._cum) - 1 - model.inner._pos
    return "consume", max(0, held - int(r.integers(0, batch)))


def _run_grants(fast, ref, r, batch, n_ops):
    consumed = 0
    for _ in range(n_ops):
        if r.random() < 0.15:
            kind, n = _shift_op(fast, r, batch)
            if kind == "peek":
                assert fast.peek_sum(n) == ref.peek_sum(n)
            else:
                assert fast.consume(n) == ref.consume(n)
                consumed += n
        else:
            avail, held = _grant_op(fast, r, batch)
            got = _grant(fast, avail, batch, held)
            want = _per_batch_grant(ref, avail, batch, held)
            assert got == want
            assert got[1] == want[1] and got[2] == want[2]
            assert got[0][1].hex() == want[0][1].hex()
            consumed += got[0][0] * batch + sum(k for k, _ in got[1])
        _same_state(fast, ref)
    return consumed


def _grant_pair(inner, overhead, seed):
    return (WithOverhead(_INNERS[inner](np.random.default_rng(seed)),
                         overhead),
            _PerBatchWithOverhead(_INNERS[inner](np.random.default_rng(seed)),
                                  overhead))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       inner=st.sampled_from(sorted(_INNERS)),
       overhead=st.sampled_from([0.0, 37.25, 100.0]),
       batch=st.sampled_from([32, 1, 5]),
       n_ops=st.integers(1, 120))
def test_grant_level_full_batches_property(seed, inner, overhead, batch,
                                           n_ops):
    fast, ref = _grant_pair(inner, overhead, seed)
    _run_grants(fast, ref, np.random.default_rng(seed), batch, n_ops)


@pytest.mark.parametrize("overhead", [0.0, 100.0, 37.25])
@pytest.mark.parametrize("inner", sorted(_INNERS))
def test_grant_level_full_batches_across_rebase(inner, overhead):
    """Grants that straddle 1024-draw refills and a _COMPACT rebase."""
    fast, ref = _grant_pair(inner, overhead, 17)
    r = np.random.default_rng(4)
    consumed = 0
    while consumed <= _COMPACT + 5 * _REFILL:
        consumed += _run_grants(fast, ref, r, 32, 50)
    assert fast.inner._off + fast.inner._pos < consumed


@pytest.mark.parametrize("model", [
    ChoiceCost([120.0, 270.0, 550.0], rng=np.random.default_rng(1)),
    ScaledCost(WithOverhead(NormalCost(270.0, 90.0,
                                       rng=np.random.default_rng(1)),
                            100.0), 1.7),
    ScaledCost(FixedCost(100.0), 2.0),
    WithOverhead(FixedCost(100.0), 37.25),
], ids=["bare-buffered", "scaled", "scaled-fixed", "overhead-on-fixed"])
def test_full_batches_declines_outside_fast_paths(model):
    """Models without a grant-level walk leave every batch to
    consume_upto and consume nothing."""
    before = model.peek_sum(3000)
    assert model.full_batches(1e9, 32, 20) == _DECLINED
    assert model.peek_sum(3000) == before


@pytest.mark.parametrize("overhead", [0.0, 100.0, 37.25])
@pytest.mark.parametrize("inner", sorted(_INNERS))
def test_grant_level_execute_matches_per_batch_loop(inner, overhead,
                                                    monkeypatch):
    """The same for WithOverhead over each buffered model, over enough
    grants (up to 16 batches each) to cross several refills."""
    grants = [(j % 17) * 32 * 400.0 + (j % 5) * 97.5 for j in range(300)]
    runs = [_execute_trace(
        lambda: WithOverhead(_INNERS[inner](np.random.default_rng(3)),
                             overhead),
        grants, monkeypatch, per_batch) for per_batch in (False, True)]
    assert runs[0] == runs[1]


def test_noninteger_cost_scenario_digest_matches_probe_search(monkeypatch):
    """End to end, with cost models whose draws are not integers (so the
    prefix sums' float grouping is observable): the windowed search and
    the probe search yield the same scenario digest."""
    from repro.analysis.export import result_to_dict
    from repro.experiments.common import Scenario
    from repro.runner.digest import digest_of

    def run():
        sc = Scenario(scheduler="NORMAL", features="NFVnice", seed=3)
        streams = sc.rng_factory
        nfs = [
            sc.add_nf("normal", NormalCost(270.0, 90.0,
                                           rng=streams.stream("cost-a")),
                      core=0),
            sc.add_nf("exp", ExponentialCost(300.0,
                                             rng=streams.stream("cost-b")),
                      core=0),
            sc.add_nf("uniform", UniformCost(100.0, 400.0,
                                             rng=streams.stream("cost-c")),
                      core=0),
        ]
        assert all(type(nf.cost_model) is WithOverhead for nf in nfs)
        sc.add_chain("chain", [nf.name for nf in nfs])
        sc.add_flow("flow", "chain", line_rate_fraction=1.0)
        res = sc.run(0.05)
        # Every NF consumed past the compaction threshold.
        assert min(s.processed for s in res.nfs.values()) > _COMPACT
        return digest_of(result_to_dict(res))

    windowed = run()
    # Pinned when the buffer still kept every consumed prefix sum: the
    # trimmed buffer and the full-batch probe must not move it.
    assert windowed == ("16d16a3bf04d6402d2f693954e08e5a4"
                        "954ffdcec2993953890904856745defd")
    # Every batch through the probe search: no grant-level walk either.
    monkeypatch.setattr(WithOverhead, "consume_upto", _probe_consume_upto)
    monkeypatch.setattr(WithOverhead, "full_batches", CostModel.full_batches)
    assert run() == windowed


# ----------------------------------------------------------------------
# The stochastic cost path end to end (fig10, ChoiceCost draws behind
# the full-batch probe), pinned as result digests.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("scheduler,features,digest", [
    ("NORMAL", "NFVnice", "a1464d9fdd3f77408bd3e64ddf4765cf"
                          "be3cdb49791e99f9c8a408326337dd53"),
    ("BATCH", "Default", "c96b2cc4230e2badf65ab13c344d565f"
                         "da10384dd03052c772b2bad17d9cb8c3"),
])
def test_fig10_variable_cost_cases_are_pinned(scheduler, features, digest):
    from repro.analysis.export import result_to_dict
    from repro.experiments.fig10_variable_cost import run_case
    from repro.runner.digest import digest_of

    result = run_case(scheduler, features, duration_s=0.05)
    assert digest_of(result_to_dict(result)) == digest


# ----------------------------------------------------------------------
# The EDF and DEADLINE dispatch paths (slo_battery), pinned as result
# digests: hot-path trims in sched/ must keep both bit-identical.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("scheduler,duration_s,digest", [
    ("EDF", 0.02, "f4cdc8d6e2b3fa821aab6df021dd9156"
                  "b6c18a2576988d124374a05fab044a55"),
    # 0.05 s: the SLO governor's first migration to the spare core
    # happens between 20 and 50 ms.
    ("DEADLINE", 0.05, "078d5ae5717c2346b7db3a41c8c7b95b"
                       "bd9e15435badb28e789da9016fbda68d"),
])
def test_slo_battery_scheduler_paths_are_pinned(scheduler, duration_s,
                                                digest):
    from repro.analysis.export import result_to_dict
    from repro.experiments.slo_battery import run_case
    from repro.runner.digest import digest_of

    result = run_case("mixed", scheduler, duration_s=duration_s, seed=0)
    assert digest_of(result_to_dict(result)) == digest
    if scheduler == "DEADLINE":
        # ``slo`` is digest-invisible: pin the governor's action here.
        assert result.slo["migrations"] == 1
