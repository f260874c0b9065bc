"""Outside-in span tracer: per-layer host time without touching ``src/``.

A :class:`SpanTracer` patches, for as long as it is entered, the public
cross-layer calls of the simulator's classes (:data:`BOUNDARIES`) and the
event loop's ``call_at``/``call_every``, so that every call and every
event callback runs inside a span.  A span is named ``<layer>:<qualname>``
where the layer is the module name under ``repro`` that defines the code
(``Core._on_segment_end`` is ``sched``).  ``sim`` self time is
``run_until`` minus its callbacks: the pure dispatch cost.

Spans aggregate in memory into a call tree (calls, inclusive and child
nanoseconds per node).  A layer's self time is the sum over its nodes of
inclusive minus child time, so the self times of all spans add up to the
time spent inside the top-level spans.

Intra-layer helpers are deliberately not wrapped: a span costs about a
microsecond, and wrapping a hot helper (``peek_sum``) would cost more
than the time it attributes.

The tracer also captures each case's ``NFManager`` and
``TrafficGenerator`` (by wrapping their ``start``) to read deterministic
counters after the case (:meth:`SpanTracer.end_case`), then drops them.
"""

from __future__ import annotations

import importlib
import inspect
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: The layers the benchmark reports: module names under ``src/repro/``.
LAYERS = ("sim", "sched", "platform", "core", "nfs", "traffic", "metrics",
          "obs", "cluster", "experiments")

#: ``(module, class, methods)`` wrapped in a span, in the class and every
#: subclass that overrides them.  ``None`` means every public method.
BOUNDARIES: Tuple[Tuple[str, str, Optional[Tuple[str, ...]]], ...] = (
    ("repro.sched.core", "Core", ("wake", "interrupt_current", "block_ready")),
    ("repro.sched.base", "Scheduler",
     ("enqueue", "dequeue", "pick_next", "time_slice", "charge",
      "preempts_on_wake")),
    ("repro.platform.ring", "PacketRing",
     ("enqueue", "dequeue", "dequeue_batch", "drain")),
    ("repro.platform.wakeup", "WakeupSubsystem", ("notify",)),
    ("repro.platform.nic", "NIC", ("receive", "transmit")),
    ("repro.core.nf", "NFProcess", ("execute", "estimate_run_ns")),
    ("repro.core.backpressure", "BackpressureController",
     ("evaluate", "mark_overloaded")),
    ("repro.nfs.cost_models", "CostModel", ("consume_upto", "consume")),
    ("repro.traffic.flows", "FlowSpec", ("next_count",)),
    ("repro.obs.latency", "FlowLatencyTracker", None),
    ("repro.obs.causality", "CausalityTracer", None),
    ("repro.metrics.histogram", "CycleHistogram", ("add",)),
    ("repro.cluster.fabric", "FabricLink", ("send",)),
    ("repro.experiments.common", "Scenario", ("run",)),
    ("repro.cluster.scenario", "ClusterScenario", ("run",)),
)

#: Spans whose inclusive time is the simulation proper of a case; the
#: rest of ``run_case`` is scenario build (``experiments.build_s``).
RUN_SPANS = ("experiments:Scenario.run", "cluster:ClusterScenario.run")
CASE_SPAN = "experiments:run_case"
TICK_SPAN = "traffic:TrafficGenerator.tick"

# Span-node slots: a plain list keeps the per-call update cheap.
_CALLS, _INCL, _CHILD, _KIDS = range(4)


def _node() -> list:
    return [0, 0, 0, {}]


def layer_of(module: str) -> str:
    """``repro.sched.core`` -> ``sched``; outside ``repro``: the module."""
    parts = module.split(".")
    return parts[1] if parts[0] == "repro" and len(parts) > 1 else parts[0]


def _subclasses(cls: type) -> Iterator[type]:
    """``cls`` and every subclass, each once."""
    seen = set()
    stack = [cls]
    while stack:
        k = stack.pop()
        if k not in seen:
            seen.add(k)
            yield k
            stack.extend(k.__subclasses__())


class SpanTracer:
    """Context manager: patches on enter, restores every attribute on exit."""

    def __init__(self) -> None:
        self.root = _node()
        self._cur = [self.root]
        self._patches: List[Tuple[type, str, Any]] = []
        self._callback_names: Dict[Any, str] = {}
        self._managers: List[Any] = []
        self._generators: List[Any] = []
        #: Deterministic counters summed over the cases ended so far.
        self.counters: Dict[str, int] = dict.fromkeys(
            ("cases", "events", "skips", "peak_pending", "dispatches",
             "processed", "coalesce_hits", "ring_drops", "offered",
             "scale_outs"), 0)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as span ``name``."""
        cur = self._cur
        clock = time.perf_counter_ns

        # Literal slot indices: this body runs millions of times per pass.
        def span(*args: Any, **kwargs: Any) -> Any:
            parent = cur[0]
            kids = parent[3]
            node = kids.get(name)
            if node is None:
                node = kids[name] = _node()
            cur[0] = node
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                node[0] += 1
                node[1] += dt
                parent[2] += dt
                cur[0] = parent

        return span

    def _callback(self, callback: Callable[[], None]) -> Callable[[], None]:
        func = getattr(callback, "__func__", callback)
        # Closures are new function objects per schedule; their code is not.
        key = getattr(func, "__code__", None) or type(callback)
        name = self._callback_names.get(key)
        if name is None:
            module = getattr(func, "__module__", None) or \
                type(callback).__module__
            qualname = getattr(func, "__qualname__",
                               type(callback).__qualname__)
            name = self._callback_names[key] = \
                f"{layer_of(module)}:{qualname}"
        return self.wrap(name, callback)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _patch(self, owner: type, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "SpanTracer":
        try:
            self._patch_all()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched(self) -> List[Tuple[type, str, Any]]:
        """``(class, attribute, original)`` for every live patch."""
        return list(self._patches)

    def _patch_all(self) -> None:
        from repro.sim.engine import EventLoop

        loop_cls = type(EventLoop())
        tracer = self

        def owner_of(cls: type, attr: str) -> type:
            return next(k for k in cls.__mro__ if attr in k.__dict__)

        call_at = loop_cls.call_at
        call_every = loop_cls.call_every

        def traced_call_at(loop: Any, t: Any, callback: Any) -> Any:
            return call_at(loop, t, tracer._callback(callback))

        def traced_call_every(loop: Any, period: Any, callback: Any,
                              first: Any = None) -> Any:
            return call_every(loop, period, tracer._callback(callback), first)

        self._patch(owner_of(loop_cls, "call_at"), "call_at", traced_call_at)
        self._patch(owner_of(loop_cls, "call_every"), "call_every",
                    traced_call_every)
        run_until = owner_of(loop_cls, "run_until")
        self._patch(run_until, "run_until",
                    self.wrap("sim:EventLoop.run_until",
                              run_until.__dict__["run_until"]))

        for module, cls_name, methods in BOUNDARIES:
            base = getattr(importlib.import_module(module), cls_name)
            for cls in _subclasses(base):
                for attr, fn in list(vars(cls).items()):
                    if not inspect.isfunction(fn):
                        continue
                    if methods is None:
                        if attr.startswith("_"):
                            continue
                    elif attr not in methods:
                        continue
                    name = f"{layer_of(cls.__module__)}:{cls.__name__}.{attr}"
                    self._patch(cls, attr, self.wrap(name, fn))

        from repro.platform.manager import NFManager
        from repro.traffic.generator import TrafficGenerator

        for cls, sink in ((NFManager, self._managers),
                          (TrafficGenerator, self._generators)):
            self._patch(cls, "start", _capturing(sink, cls.__dict__["start"]))

    # ------------------------------------------------------------------
    # Per-case counters
    # ------------------------------------------------------------------
    def end_case(self, result: Any) -> None:
        """Fold one finished case's deterministic counters in, then drop
        the managers and generators it started."""
        c = self.counters
        c["cases"] += 1
        for mgr in self._managers:
            c["dispatches"] += sum(core.stats.dispatches
                                   for core in mgr.cores.values())
            rings = [mgr.nic.rx_ring]
            for nf in mgr.nfs:
                c["processed"] += nf.processed_packets
                rings += (nf.rx_ring, nf.tx_ring)
            for ring in rings:
                c["coalesce_hits"] += ring.coalesce_hits
                c["ring_drops"] += ring.dropped_total
        c["offered"] += sum(gen.offered_total for gen in self._generators)
        stats = result.loop_stats
        c["events"] += stats.get("pops", 0)
        c["skips"] += stats.get("lazy_cancel_skips", 0)
        c["peak_pending"] = max(c["peak_pending"],
                                stats.get("peak_pending", 0))
        autoscaler = result.resilience.get("cluster", {}).get("autoscaler")
        if autoscaler:
            c["scale_outs"] += autoscaler["scale_outs"]
        self._managers.clear()
        self._generators.clear()

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def edges(self) -> Dict[Tuple[str, str], List[int]]:
        """``(parent, name) -> [calls, incl_ns, self_ns]`` over the tree."""
        out: Dict[Tuple[str, str], List[int]] = {}
        stack = [("", self.root)]
        while stack:
            parent_name, node = stack.pop()
            for name, kid in node[_KIDS].items():
                agg = out.setdefault((parent_name, name), [0, 0, 0])
                agg[0] += kid[_CALLS]
                agg[1] += kid[_INCL]
                agg[2] += kid[_INCL] - kid[_CHILD]
                stack.append((name, kid))
        return out

    def span_totals(self) -> Dict[str, List[int]]:
        """``name -> [calls, incl_ns, self_ns]`` summed over parents."""
        out: Dict[str, List[int]] = {}
        for (_parent, name), (calls, incl, self_ns) in self.edges().items():
            agg = out.setdefault(name, [0, 0, 0])
            agg[0] += calls
            agg[1] += incl
            agg[2] += self_ns
        return out

    def top_level_ns(self) -> int:
        """Time inside top-level spans (= the sum of all self times)."""
        return sum(kid[_INCL] for kid in self.root[_KIDS].values())

    def layer_metrics(self, wall_ns: int) -> Dict[str, float]:
        """Per-layer metrics of the traced work that took ``wall_ns``."""
        totals = self.span_totals()
        layer_self = dict.fromkeys(LAYERS, 0)
        layer_calls = dict.fromkeys(LAYERS, 0)
        for name, (calls, _incl, self_ns) in totals.items():
            layer = name.split(":", 1)[0]
            if layer in layer_self:
                layer_self[layer] += self_ns
                layer_calls[layer] += calls
        c = self.counters

        def calls_of(*names: str) -> int:
            return sum(totals.get(n, (0,))[0] for n in names)

        def per(num: float, den: float) -> float:
            return num / den if den else 0.0

        m: Dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.self_share"] = per(layer_self[layer], wall_ns)
            m[f"{layer}.calls"] = layer_calls[layer]
        enqueues = calls_of("platform:PacketRing.enqueue")
        executes = calls_of("core:NFProcess.execute")
        ticks = calls_of(TICK_SPAN)
        build_ns = sum(
            kid[_INCL] - sum(kid[_KIDS][r][_INCL] for r in RUN_SPANS
                             if r in kid[_KIDS])
            for name, kid in self.root[_KIDS].items() if name == CASE_SPAN)
        m.update({
            "sim.events": c["events"],
            "sim.peak_pending": c["peak_pending"],
            "sim.skip_ratio": per(c["skips"], c["events"] + c["skips"]),
            "sim.ns_per_event": per(layer_self["sim"], c["events"]),
            "sched.dispatches": c["dispatches"],
            "sched.ns_per_dispatch": per(layer_self["sched"],
                                         c["dispatches"]),
            "platform.ring_enqueues": enqueues,
            "platform.coalesce_ratio": per(c["coalesce_hits"], enqueues),
            "platform.ring_drops": c["ring_drops"],
            "core.executes": executes,
            "core.pkts_per_execute": per(c["processed"], executes),
            "core.ns_per_pkt": per(layer_self["core"], c["processed"]),
            "nfs.ns_per_call": per(layer_self["nfs"], layer_calls["nfs"]),
            "traffic.pkts_offered": c["offered"],
            "traffic.ns_per_tick": per(layer_self["traffic"], ticks),
            "metrics.ns_per_call": per(layer_self["metrics"],
                                       layer_calls["metrics"]),
            "obs.ns_per_call": per(layer_self["obs"], layer_calls["obs"]),
            "cluster.fabric_sends": calls_of("cluster:FabricLink.send"),
            "cluster.scale_outs": c["scale_outs"],
            "experiments.build_s": build_ns / 1e9,
            "trace.unattributed_share": per(wall_ns - self.top_level_ns(),
                                            wall_ns),
        })
        return m

    def to_json(self, wall_ns: int) -> Dict[str, Any]:
        """The span table for ``trace_<workload>.json``."""
        spans = [
            {"parent": parent, "name": name, "calls": calls,
             "incl_s": incl / 1e9, "self_s": self_ns / 1e9,
             "self_share": self_ns / wall_ns if wall_ns else 0.0}
            for (parent, name), (calls, incl, self_ns)
            in sorted(self.edges().items(), key=lambda kv: -kv[1][2])
        ]
        return {"wall_s": wall_ns / 1e9, "counters": dict(self.counters),
                "spans": spans}


def _capturing(sink: List[Any], start: Callable[..., Any]
               ) -> Callable[..., Any]:
    def capture(obj: Any, *args: Any, **kwargs: Any) -> Any:
        sink.append(obj)
        return start(obj, *args, **kwargs)

    return capture
