"""Microbenchmarks of the simulator's hot data structures.

Not paper artifacts — these justify the engineering choices (segment
rings, lazy event cancellation, sorted-list CFS runqueue) by measuring
the operations the simulation spends its time in.
"""

import numpy as np

from repro.core.nf import NFProcess
from repro.nfs.cost_models import ChoiceCost
from repro.platform.config import PlatformConfig
from repro.platform.packet import Flow
from repro.platform.ring import PacketRing
from repro.sched.base import CoreTask
from repro.sched.cfs import CFSScheduler
from repro.sim.engine import EventLoop


def test_event_loop_schedule_run(benchmark):
    def run():
        loop = EventLoop()
        for i in range(10_000):
            loop.schedule(i + 1, _noop)
        loop.run_until(10_000)

    benchmark(run)


def _noop():
    return None


def test_ring_enqueue_dequeue(benchmark):
    flow = Flow("f")

    def run():
        ring = PacketRing(capacity=4096)
        for t in range(2_000):
            ring.enqueue(flow, 32, t)
            ring.dequeue(32)

    benchmark(run)


def test_cfs_enqueue_pick(benchmark):
    """A 10-task runqueue (the longest fig16 chain on one core): each
    dispatch picks the lowest vruntime, charges it and requeues it."""
    def run():
        sched = CFSScheduler()
        for i in range(10):
            sched.enqueue(CoreTask(f"nf{i}"), 0, wakeup=True)
        for _ in range(2_000):
            task = sched.pick_next(0)
            sched.charge(task, 50_000.0)
            sched.enqueue(task, 0, wakeup=False)

    benchmark(run)


def test_cost_model_consume(benchmark):
    def run():
        model = ChoiceCost((120.0, 270.0, 550.0),
                           rng=np.random.default_rng(0))
        for _ in range(1_000):
            model.consume_upto(10_000.0, 32)

    benchmark(run)


def test_nf_execute_grant(benchmark):
    """One grant of about 11 batches (10 full, 1 partial) to an NF whose
    ChoiceCost runs wrapped in the default per-packet overhead, holding
    1,024 packets: variable_cost's per-grant cost-model bookkeeping.  The
    packets taken are put back after each grant."""
    cfg = PlatformConfig(cpu_freq_hz=1e9, ring_capacity=4096)
    nf = NFProcess("nf", ChoiceCost((120.0, 270.0, 550.0),
                                    rng=np.random.default_rng(0)),
                   config=cfg)
    flow = Flow("f")
    nf.rx_ring.enqueue(flow, 1024, 0)
    clock = [0]

    def run():
        clock[0] += 1_000_000
        before = nf.processed_packets
        nf.execute(clock[0], 145_000.0)
        taken = nf.processed_packets - before
        nf.tx_ring.dequeue(taken)
        nf.rx_ring.enqueue(flow, taken, clock[0])

    benchmark(run)


def test_simulation_second_per_wall_second(benchmark):
    """The headline simulator rate: one Figure-7-style chain second."""
    from repro.experiments.common import Scenario, build_linear_chain

    def run():
        scenario = Scenario(scheduler="BATCH", features="NFVnice")
        build_linear_chain(scenario, (120, 270, 550), core=0)
        scenario.add_flow("f", "chain", line_rate_fraction=1.0)
        return scenario.run(0.25)

    benchmark.pedantic(run, rounds=1, iterations=1)
