"""Equivalence tests for the hot-path performance work.

Every optimisation in the perf overhaul claims *bit-identical* results:
segment coalescing must not change what a dequeue observes, the periodic
fast path must fire at the same instants as a cancel+reschedule loop,
batched arrival generation must emit the same counts as scalar draws,
the widened RNG draw-ahead in the cost models must consume the same
bit stream, and the windowed ``WithOverhead`` search must take the same
packets, charge the same cycles and refill its buffer at the same points
as the probe-per-step search it replaced.  These tests pin each claim
directly, so a future change that quietly breaks digest stability fails
here first, with a readable diff, instead of as an opaque
campaign-digest mismatch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nfs.cost_models import (
    _COMPACT,
    _RAW_REFILL,
    _REFILL,
    ChoiceCost,
    ExponentialCost,
    NormalCost,
    ScaledCost,
    UniformCost,
    WithOverhead,
)
from repro.platform.packet import Flow
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


def _batch_stream(batch):
    """Flatten dequeue_batch tuples the same way."""
    out = []
    for fl, count, enq, origin, _span in batch:
        out.extend([(fl.flow_id, enq, origin)] * count)
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
        assert ring_a.chain_count("A") == ring_b.chain_count("A")
        assert ring_a.chain_count("B") == ring_b.chain_count("B")
    # Drain and compare the remainder, then every counter.
    assert _packet_stream(ring_a.dequeue(10**6)) == \
        _packet_stream(ring_b.dequeue(10**6))
    for attr in ("enqueued_total", "dropped_total", "dequeued_total"):
        assert getattr(ring_a, attr) == getattr(ring_b, attr)
    for fa, fb in zip(flows_a, flows_b):
        assert fa.stats.queue_drops == fb.stats.queue_drops


@settings(max_examples=200, deadline=None)
@given(ops=ops_strategy)
def test_dequeue_batch_matches_dequeue(ops):
    """The tuple-yielding fast path is packet-for-packet identical to
    dequeue(), including partial takes from coalesced segments."""
    chain = FakeChain("A")
    flows_a = [flow(f"f{i}", chain) for i in range(3)]
    flows_b = [flow(f"f{i}", chain) for i in range(3)]
    ring_a = PacketRing(capacity=64)
    ring_b = PacketRing(capacity=64)
    now = 0
    for op in ops:
        if op[0] == "enq":
            _, fi, count, dt = op
            now += dt
            ring_a.enqueue(flows_a[fi], count, now)
            ring_b.enqueue(flows_b[fi], count, now)
        else:
            _, n = op
            assert _packet_stream(ring_a.dequeue(n)) == \
                _batch_stream(ring_b.dequeue_batch(n))
        assert len(ring_a) == len(ring_b)
        assert ring_a.chain_count("A") == ring_b.chain_count("A")
    assert ring_a.dequeued_total == ring_b.dequeued_total


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


def test_spanned_enqueue_never_coalesces():
    """A span must stay pinned to its own packet run."""
    ring = PacketRing(capacity=100)
    f = flow("f")
    ring.enqueue(f, 5, now_ns=10)
    ring.enqueue(f, 5, now_ns=10, span=object())
    assert ring.coalesce_hits == 0
    assert ring.coalesce_misses == 2


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
                # Reschedule-first, like PeriodicProcess did: the re-arm
                # consumes its seq number before the callback body runs.
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
    lambda r, n: r.choice(np.array([100.0, 200.0, 400.0]), size=n,
                          p=np.array([0.5, 0.3, 0.2])),
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


class _Reference:
    """Pre-draw-ahead BufferedCost semantics: each _ensure refill calls
    the sampler directly for exactly max(n - have, _REFILL) values."""

    def __init__(self, make):
        self.model = make()
        # Defeat the raw pool: serve _draw straight from the subclass.
        self.model._draw = self.model._draw_block


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
    assert fast.inner._pos < consumed  # the buffer was compacted


@pytest.mark.parametrize("inner", sorted(_INNERS))
def test_windowed_search_refills_only_where_probe_search_does(inner):
    """20 packets buffered, budget for 3: the probe search never looks
    past the buffer, so it must not refill — and the wide peek that
    follows must then split the prefix sums at the same draw."""
    fast, ref, _, _ = _pair(inner, 100.0, False)
    for model in (fast, ref):
        model.consume(1)
        model.consume(len(model.inner._cum) - 1 - model.inner._pos - 20)
    _same_buffer(fast, ref)
    budget = fast.peek_sum(3)
    assert fast.consume_upto(budget, 32) == ref.consume_upto(budget, 32)
    _same_buffer(fast, ref)
    assert fast.peek_sum(3000) == ref.peek_sum(3000)
    _same_buffer(fast, ref)


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
    monkeypatch.setattr(WithOverhead, "consume_upto", _probe_consume_upto)
    assert run() == windowed
