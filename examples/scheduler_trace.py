#!/usr/bin/env python3
"""Tracing scheduler decisions: an ASCII `perf sched`-style timeline.

Attaches a :class:`~repro.sched.tracing.SchedTracer` to the worker core
of the Figure 7 chain, through the platform's one observation path (an
:class:`~repro.obs.observer.Observer`), and renders who held the CPU millisecond by
millisecond, Default vs NFVnice.  The Default CFS timeline shows the
equal-time split the paper criticises; the NFVnice timeline shows the
cost-proportional split (NF3, the 550-cycle NF, visibly owns most of the
core) plus backpressure gaps.

Run:  python examples/scheduler_trace.py
"""

from repro import SEC, MSEC
from repro.experiments.common import Scenario, build_linear_chain
from repro.obs.observer import Observer
from repro.sched.tracing import SchedTracer


def run(features: str, duration_s: float = 0.2):
    scenario = Scenario(scheduler="BATCH", features=features)
    build_linear_chain(scenario, (120, 270, 550), core=0)
    scenario.add_flow("f", "chain", line_rate_fraction=1.0)
    tracer = SchedTracer()
    scenario.manager.attach_observability(Observer(tracers={0: tracer}))
    result = scenario.run(duration_s)
    return tracer, result


def main() -> None:
    window = (int(0.10 * SEC), int(0.15 * SEC))  # a steady-state 50 ms
    for features in ("Default", "NFVnice"):
        tracer, result = run(features)
        print(f"\n=== {features}: CPU timeline, t = 100..150 ms "
              f"(1 column = 1 ms; '#' ran most of it) ===")
        print(tracer.render_timeline(*window, bucket_ns=1 * MSEC))
        runtime = tracer.runtime_by_task(core_id=0)
        total = sum(runtime.values()) or 1
        shares = ", ".join(
            f"{task} {100 * ns / total:.0f}%"
            for task, ns in sorted(runtime.items())
        )
        print(f"on-CPU shares: {shares}")
        print(f"chain throughput: "
              f"{result.total_throughput_pps / 1e6:.2f} Mpps")


if __name__ == "__main__":
    main()
