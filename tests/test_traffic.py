"""Tests for flow specs, the traffic generator and the TCP model."""

import numpy as np
import pytest

from repro.platform.nic import NIC, line_rate_pps
from repro.platform.packet import Flow
from repro.sim.clock import MSEC, SEC, USEC
from repro.traffic.flows import FlowSpec
from repro.traffic.generator import TrafficGenerator
from repro.traffic.tcp import TCPFlow


class TestFlowSpec:
    def test_active_window(self):
        spec = FlowSpec(Flow("f"), 1000, start_ns=100, stop_ns=200)
        assert not spec.active(99)
        assert spec.active(100)
        assert spec.active(199)
        assert not spec.active(200)

    def test_always_active_without_stop(self):
        spec = FlowSpec(Flow("f"), 1000)
        assert spec.active(10 ** 15)

    def test_cbr_exact_long_run(self):
        spec = FlowSpec(Flow("f"), rate_pps=333_333.0)
        total = sum(spec.packets_this_tick(100 * USEC) for _ in range(10_000))
        assert total == pytest.approx(333_333.0, rel=1e-3)

    def test_cbr_carry_fractional(self):
        spec = FlowSpec(Flow("f"), rate_pps=5000.0)  # 0.5 pkt per 100us
        counts = [spec.packets_this_tick(100 * USEC) for _ in range(10)]
        assert sum(counts) == 5
        assert set(counts) <= {0, 1}

    def test_poisson_needs_rng(self):
        spec = FlowSpec(Flow("f"), 1000, pattern="poisson")
        with pytest.raises(ValueError):
            spec.packets_this_tick(MSEC)
        rng = np.random.default_rng(0)
        total = sum(spec.packets_this_tick(MSEC, rng) for _ in range(5000))
        assert total == pytest.approx(5000, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowSpec(Flow("f"), -1)
        with pytest.raises(ValueError):
            FlowSpec(Flow("f"), 1, pattern="burst")

    @pytest.mark.parametrize("rate", [-1.0, float("nan"), float("inf"),
                                      float("-inf")])
    def test_rate_must_be_finite_and_non_negative(self, rate):
        with pytest.raises(ValueError, match="rate_pps"):
            FlowSpec(Flow("f"), rate)


class TestGenerator:
    def test_offers_to_nic(self, loop):
        nic = NIC()
        gen = TrafficGenerator(loop, nic, tick_ns=100 * USEC)
        f = Flow("f")
        gen.add_flow(f, rate_pps=1.0e6)
        gen.start()
        loop.run_until(10 * MSEC)
        assert f.stats.offered == pytest.approx(10_000, rel=0.01)
        assert gen.offered_total == f.stats.offered

    def test_line_rate_split(self, loop):
        nic = NIC()
        gen = TrafficGenerator(loop, nic)
        flows = [Flow(f"f{i}") for i in range(4)]
        specs = gen.add_line_rate_flows(flows)
        assert len(specs) == 4
        total = sum(s.rate_pps for s in specs)
        assert total == pytest.approx(line_rate_pps(64), rel=1e-6)

    def test_inactive_flow_emits_nothing(self, loop):
        nic = NIC()
        gen = TrafficGenerator(loop, nic, tick_ns=100 * USEC)
        f = Flow("f")
        gen.add_flow(f, rate_pps=1e6, start_ns=5 * MSEC)
        gen.start()
        loop.run_until(4 * MSEC)
        assert f.stats.offered == 0

    def test_rate_change_mid_run(self, loop):
        nic = NIC()
        gen = TrafficGenerator(loop, nic, tick_ns=100 * USEC)
        f = Flow("f")
        spec = gen.add_flow(f, rate_pps=1e6)
        gen.start()
        loop.run_until(10 * MSEC)
        before = f.stats.offered
        spec.rate_pps = 0.0
        loop.run_until(20 * MSEC)
        assert f.stats.offered == before


class TestTCP:
    def _spec(self, loop):
        f = Flow("t", pkt_size=1500, protocol="tcp")
        return FlowSpec(f, rate_pps=1.0)

    def test_requires_tcp_flow(self, loop):
        with pytest.raises(ValueError):
            TCPFlow(loop, FlowSpec(Flow("u", protocol="udp"), 1.0))

    def test_slow_start_doubles(self, loop):
        spec = self._spec(loop)
        tcp = TCPFlow(loop, spec, rtt_ns=MSEC, init_cwnd=2, max_cwnd=1000)
        tcp.start()
        loop.run_until(3 * MSEC)
        assert tcp.cwnd == 16  # 2 -> 4 -> 8 -> 16

    def test_loss_halves_once_per_rtt(self, loop):
        spec = self._spec(loop)
        tcp = TCPFlow(loop, spec, rtt_ns=MSEC, init_cwnd=64, max_cwnd=64)
        tcp.start()
        spec.flow.stats.queue_drops = 100  # many losses, one RTT
        loop.run_until(MSEC)
        assert tcp.cwnd == 32
        assert tcp.decreases == 1

    def test_ecn_mark_triggers_decrease(self, loop):
        spec = self._spec(loop)
        tcp = TCPFlow(loop, spec, rtt_ns=MSEC, init_cwnd=64, max_cwnd=64)
        tcp.start()
        tcp.on_ecn_mark(1, 0)
        loop.run_until(MSEC)
        assert tcp.cwnd == 32

    def test_congestion_avoidance_additive(self, loop):
        spec = self._spec(loop)
        tcp = TCPFlow(loop, spec, rtt_ns=MSEC, init_cwnd=10, max_cwnd=100,
                      ssthresh=10)
        tcp.start()
        loop.run_until(5 * MSEC)
        assert tcp.cwnd == 15  # +1 per RTT above ssthresh

    def test_cwnd_floor_is_one(self, loop):
        spec = self._spec(loop)
        tcp = TCPFlow(loop, spec, rtt_ns=MSEC, init_cwnd=1, max_cwnd=10)
        tcp.start()
        for i in range(5):
            spec.flow.stats.queue_drops += 1
            loop.run_until((i + 1) * MSEC)
        assert tcp.cwnd == 1.0

    def test_rate_tracks_cwnd(self, loop):
        spec = self._spec(loop)
        tcp = TCPFlow(loop, spec, rtt_ns=MSEC, init_cwnd=100, max_cwnd=100)
        # 100 packets per 1 ms RTT = 100 kpps.
        assert spec.rate_pps == pytest.approx(1e5)
        assert tcp.rate_bps == pytest.approx(1e5 * 1500 * 8)

    def test_flow_backref(self, loop):
        spec = self._spec(loop)
        tcp = TCPFlow(loop, spec)
        assert spec.flow.tcp is tcp


class TestArrivalModels:
    """Heavy-tailed/bursty models: PR 4's batch + RNG-rewind contract."""

    MODELS = ("pareto_onoff", "mmpp", "flash_crowd")
    TICK = 100 * USEC

    def _counts_scalar(self, pattern, seed, n_ticks, rate=100_000.0,
                       rate_change=None):
        """Reference stream: one unbatched draw per tick."""
        rng = np.random.default_rng(seed)
        spec = FlowSpec(Flow("f"), rate, pattern=pattern)
        out = []
        for i in range(n_ticks):
            if rate_change is not None and i == rate_change[0]:
                spec.rate_pps = rate_change[1]
            out.append(spec.packets_this_tick(self.TICK, rng))
        return out

    def _counts_batched(self, pattern, seed, n_ticks, rate=100_000.0,
                        rate_change=None):
        """Same stream served through the 256-tick batch machinery."""
        rng = np.random.default_rng(seed)
        spec = FlowSpec(Flow("f"), rate, pattern=pattern)
        out = []
        for i in range(n_ticks):
            if rate_change is not None and i == rate_change[0]:
                spec.rate_pps = rate_change[1]
            out.append(spec.next_count(self.TICK, rng, rng_batch=True))
        return out

    @pytest.mark.parametrize("pattern", MODELS)
    def test_batched_matches_scalar(self, pattern):
        scalar = self._counts_scalar(pattern, seed=7, n_ticks=1000)
        batched = self._counts_batched(pattern, seed=7, n_ticks=1000)
        assert batched == scalar
        assert sum(scalar) > 0

    @pytest.mark.parametrize("pattern", MODELS)
    def test_rate_change_rewinds_rng_and_model_exactly(self, pattern):
        """A mid-batch rate change (tick 137, deep inside the first
        256-tick batch) rewinds the RNG *and* the model state to the
        batch start and replays the consumed prefix: the emitted stream
        still matches per-tick scalar draws bit for bit."""
        change = (137, 250_000.0)
        scalar = self._counts_scalar(pattern, seed=11, n_ticks=1000,
                                     rate_change=change)
        batched = self._counts_batched(pattern, seed=11, n_ticks=1000,
                                       rate_change=change)
        assert batched == scalar

    @pytest.mark.parametrize("pattern", MODELS)
    def test_rerun_is_bit_identical(self, pattern):
        a = self._counts_batched(pattern, seed=3, n_ticks=600)
        b = self._counts_batched(pattern, seed=3, n_ticks=600)
        assert a == b
        assert a != self._counts_batched(pattern, seed=4, n_ticks=600)

    @pytest.mark.parametrize("pattern", MODELS)
    def test_snapshot_restore_replays_identically(self, pattern):
        from repro.traffic.arrivals import make_arrival_model

        rng = np.random.default_rng(5)
        model = make_arrival_model(pattern)
        model.draw(100_000.0, self.TICK, 300, rng)   # advance into a phase
        state = model.snapshot()
        rng_state = rng.bit_generator.state
        first = model.draw(100_000.0, self.TICK, 200, rng)
        model.restore(state)
        rng.bit_generator.state = rng_state
        again = model.draw(100_000.0, self.TICK, 200, rng)
        assert first == again

    def test_mmpp_long_run_mean_matches_rate(self):
        # 2 simulated seconds at 100 kpps: the normalised intensity
        # factors must keep the long-run average at rate_pps.
        counts = self._counts_batched("mmpp", seed=1, n_ticks=20_000)
        assert sum(counts) == pytest.approx(200_000, rel=0.15)

    def test_pareto_onoff_silent_while_off(self):
        counts = self._counts_batched("pareto_onoff", seed=2, n_ticks=5000)
        assert 0 in counts           # OFF phases exist
        assert max(counts) > 100_000 * self.TICK / 1e9  # boosted ON rate

    def test_flash_crowd_envelope_shape(self):
        from repro.traffic.arrivals import FlashCrowd

        model = FlashCrowd(start_s=0.01, ramp_s=0.01, hold_s=0.02,
                           peak_factor=5.0)
        assert model.factor_at(0.0) == 1.0
        assert model.factor_at(0.015) == pytest.approx(3.0)   # mid-ramp
        assert model.factor_at(0.025) == 5.0                  # hold
        assert model.factor_at(1.0) == 1.0                    # decayed

    def test_unknown_pattern_raises(self):
        from repro.traffic.arrivals import make_arrival_model

        with pytest.raises(ValueError):
            make_arrival_model("fractal_noise")
        with pytest.raises(ValueError):
            FlowSpec(Flow("f"), 1000, pattern="fractal_noise")

    def test_model_params_validation(self):
        from repro.traffic.arrivals import MMPP

        spec = FlowSpec(Flow("f"), 1000, pattern="flash_crowd",
                        model_params={"peak_factor": 8.0})
        assert spec.model.peak_factor == 8.0
        with pytest.raises(ValueError):
            FlowSpec(Flow("f"), 1000, pattern="cbr",
                     model_params={"peak_factor": 8.0})
        with pytest.raises(ValueError):
            FlowSpec(Flow("f"), 1000, model=MMPP(),
                     model_params={"low_factor": 0.1})

    def test_model_instance_sets_pattern_name(self):
        from repro.traffic.arrivals import ParetoOnOff

        spec = FlowSpec(Flow("f"), 1000, model=ParetoOnOff(alpha=1.2))
        assert spec.pattern == "pareto_onoff"

    def test_generator_disables_batching_with_two_rng_consumers(self, loop):
        nic = NIC()
        gen = TrafficGenerator(loop, nic, tick_ns=100 * USEC)
        gen.add_flow(Flow("a"), rate_pps=1e5, pattern="mmpp")
        assert gen._rng_batch
        gen.add_flow(Flow("b"), rate_pps=1e5, pattern="poisson")
        assert not gen._rng_batch
        gen.add_flow(Flow("c"), rate_pps=1e5)      # CBR never counts
        assert not gen._rng_batch
