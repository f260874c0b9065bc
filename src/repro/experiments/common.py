"""Shared experiment scaffolding.

A :class:`Scenario` assembles a platform (scheduler, NFVnice feature set,
NFs, chains, flows), runs it with per-second sampling — "we provide the
average, the minimum and maximum values observed across the samples
collected every second" (§4.1) — and returns a :class:`ScenarioResult`
with the measurements every table/figure draws on.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, \
    Sequence, Tuple, Union

from repro.core.nf import NFProcess
from repro.metrics.timeseries import IntervalSampler, TimeSeries
from repro.nfs.cost_models import CostModel, FixedCost
from repro.platform.chain import ServiceChain
from repro.platform.config import PlatformConfig
from repro.platform.manager import NFManager
from repro.platform.nic import line_rate_pps
from repro.platform.packet import Flow
from repro.sim.clock import SEC
from repro.sim.engine import EventLoop
from repro.sim.rng import RngFactory
from repro.traffic.generator import TrafficGenerator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check.sanitizer import Sanitizer
    from repro.faults.plan import FaultPlan
    from repro.obs.session import ObsSession

#: The four system variants compared throughout §4.2/§4.3:
#: (enable_cgroups, enable_backpressure).
FEATURE_SETS: Dict[str, Tuple[bool, bool]] = {
    "Default": (False, False),
    "CGroup": (True, False),
    "OnlyBKPR": (False, True),
    "NFVnice": (True, True),
}


def feature_config(features: str, base: Optional[PlatformConfig] = None,
                   **overrides) -> PlatformConfig:
    """A :class:`PlatformConfig` for one of the named feature sets."""
    if features not in FEATURE_SETS:
        raise ValueError(
            f"unknown feature set {features!r}; pick one of {sorted(FEATURE_SETS)}"
        )
    cgroups, backpressure = FEATURE_SETS[features]
    cfg = base if base is not None else PlatformConfig()
    cfg = cfg.with_features(cgroups=cgroups, backpressure=backpressure,
                            ecn=cfg.enable_ecn)
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


@dataclass
class CaseSpec:
    """One independently runnable configuration of a sweep experiment.

    Sweep-style experiment modules expose ``run_case(**kwargs)``
    returning a :class:`ScenarioResult`, ``campaign_cases(duration_s)``
    returning a list of these — the experiment's one grid definition —
    and ``render_cases(results)`` rebuilding the printed artifact from
    ``{key: ScenarioResult}``.  The campaign runner (:mod:`repro.runner`)
    fans the cases across worker processes; ``main()`` runs them serially
    through :func:`run_cases`.  Because every case carries its full
    configuration — including its RNG seed — in ``kwargs``, a case
    computes the same result in any process, any order.

    ``key`` is the grid key the module's format functions expect (a tuple
    or scalar); ``kwargs`` must be picklable.
    """

    key: Any
    kwargs: Dict[str, Any]

    @property
    def label(self) -> str:
        """Stable string form of ``key`` (baseline files, task logs)."""
        if isinstance(self.key, tuple):
            return "|".join(str(part) for part in self.key)
        return str(self.key)


def run_cases(run_case: Callable[..., "ScenarioResult"],
              cases: Sequence[CaseSpec]) -> Dict[Any, "ScenarioResult"]:
    """``{key: run_case(**kwargs)}`` for ``cases``, serially in this process.

    Every sweep experiment's ``main`` is ``render_cases`` over this.
    """
    return {case.key: run_case(**case.kwargs) for case in cases}


@dataclass
class NFSummary:
    """Per-NF measurements (the ``pidstat``/``perf sched`` columns)."""

    name: str
    core_id: int
    processed: int
    processed_pps: float
    wasted_pps: float             # my processed output dropped downstream
    rx_drop_pps: float            # arrivals dropped at my own Rx ring
    runtime_s: float
    cpu_share: float              # fraction of its core's busy horizon
    cswch_per_s: float
    nvcswch_per_s: float
    avg_sched_delay_ms: float
    weight: int
    #: Rx-ring drops keyed by reason (full / sealed / nf_dead / purged,
    #: the last being what a cold restart discarded); separates
    #: congestion loss from failure loss.
    rx_drops_by_reason: Dict[str, int] = field(default_factory=dict)
    #: Times this NF was restarted by a recovery policy.
    restarts: int = 0

    @classmethod
    def from_nf(cls, nf: NFProcess, duration_s: float,
                core_base: int = 0) -> "NFSummary":
        """Summarise ``nf``; its ``core_id`` is ``core_base`` plus the id
        of its core (a cluster offsets each host's cores)."""
        core = nf.core
        assert core is not None
        busy = core.stats.busy_ns + core.stats.overhead_ns
        return cls(
            name=nf.name,
            core_id=core_base + core.core_id,
            processed=nf.processed_packets,
            processed_pps=nf.processed_packets / duration_s,
            wasted_pps=nf.wasted_processed / duration_s,
            rx_drop_pps=nf.rx_ring.dropped_total / duration_s,
            runtime_s=nf.stats.runtime_ns / SEC,
            cpu_share=(nf.stats.runtime_ns / busy) if busy > 0 else 0.0,
            cswch_per_s=nf.stats.voluntary_switches / duration_s,
            nvcswch_per_s=nf.stats.involuntary_switches / duration_s,
            avg_sched_delay_ms=nf.stats.avg_sched_delay_ns / 1e6,
            weight=nf.weight,
            rx_drops_by_reason={
                k: nf.rx_ring.drops_by_reason[k]
                for k in sorted(nf.rx_ring.drops_by_reason)
            },
            restarts=nf.restarts,
        )


@dataclass
class ChainSummary:
    """Per-chain throughput and loss accounting."""

    name: str
    completed: int
    throughput_pps: float
    throughput_bps: float
    wasted_drop_pps: float
    entry_discard_pps: float
    tput_series: Tuple[float, float, float]  # mean/min/max of 1 s samples
    latency_p50_us: float                    # end-to-end, NIC to chain exit
    latency_p99_us: float

    @classmethod
    def from_chain(cls, chain: ServiceChain, duration_s: float,
                   sampler: IntervalSampler) -> "ChainSummary":
        """Summarise ``chain``; ``sampler`` carries its ``tput:`` probe
        (see :func:`add_tput_probe`)."""
        return cls(
            name=chain.name,
            completed=chain.completed,
            throughput_pps=chain.completed / duration_s,
            throughput_bps=chain.completed_bytes * 8 / duration_s,
            wasted_drop_pps=chain.wasted_drops / duration_s,
            entry_discard_pps=chain.entry_discards / duration_s,
            tput_series=sampler[f"tput:{chain.name}"].summary(),
            latency_p50_us=chain.latency_hist.median() / 1e3,
            latency_p99_us=chain.latency_hist.percentile(99) / 1e3,
        )


def add_tput_probe(sampler: IntervalSampler, chain: ServiceChain) -> None:
    """Sample ``chain``'s completions per second as ``tput:<chain name>``."""
    sampler.add_probe(f"tput:{chain.name}", lambda: chain.completed)


def slo_budget_ns(slo_us: float) -> int:
    """An SLO class budget in ns; ``slo_us`` must be finite and positive."""
    if not (math.isfinite(slo_us) and slo_us > 0):
        raise ValueError(
            f"slo_us must be finite and positive, got {slo_us!r}")
    return int(slo_us * 1e3)


@dataclass
class ScenarioResult:
    """Everything an experiment needs to print its table/figure rows."""

    scheduler: str
    features: str
    duration_s: float
    total_throughput_pps: float
    total_wasted_pps: float
    total_entry_discard_pps: float
    chains: Dict[str, ChainSummary]
    nfs: Dict[str, NFSummary]
    core_utilization: Dict[int, float]
    series: Dict[str, TimeSeries] = field(default_factory=dict)
    #: Resilience summary from the fault injector (empty when the run had
    #: no fault plan): incident log, availability, detection/recovery
    #: latencies, packets lost vs requeued.  JSON-safe, digest-covered.
    resilience: Dict[str, Any] = field(default_factory=dict)
    #: Event-loop hygiene counters captured at the end of the run via
    #: :meth:`repro.sim.engine.EventLoop.stats_dict` (pushes, pops,
    #: lazy_cancel_skips, compactions, peak_pending).
    #: Machine-speed metadata for the perf suite — deliberately NOT
    #: serialised by :func:`repro.analysis.export.result_to_dict`, so it
    #: never enters a digest.
    loop_stats: Dict[str, int] = field(default_factory=dict)
    #: Invariant violations found by the runtime sanitizer (empty unless
    #: the run was sanitized — and empty on a clean sanitized run, so the
    #: digest matches an unsanitized run).  Each entry is a
    #: :class:`repro.check.sanitizer.SanitizerViolation`.
    sanitizer_violations: List[Any] = field(default_factory=list)
    #: Exact per-flow/per-chain/per-hop latency histograms (raw mergeable
    #: form from :meth:`repro.obs.latency.FlowLatencyTracker.to_dict`).
    #: Like ``loop_stats``, deliberately NOT serialised by
    #: :func:`repro.analysis.export.result_to_dict` by default — digests
    #: stay bit-identical with telemetry on or off.
    flow_latency: Dict[str, Any] = field(default_factory=dict)
    #: Backpressure causality attribution
    #: (:meth:`repro.obs.causality.CausalityTracer.summary`); digest-
    #: invisible for the same reason.
    causality: Dict[str, Any] = field(default_factory=dict)
    #: SLO control-loop summary (:meth:`repro.core.monitor.SLOGovernor.
    #: summary`): targets, boost/migrate events, miss counts.  Empty when
    #: no SLO governor ran.  Digest-invisible like ``flow_latency`` (the
    #: governor's *actions* are digest-covered through the results they
    #: change; this is just the log).
    slo: Dict[str, Any] = field(default_factory=dict)

    def nf(self, name: str) -> NFSummary:
        return self.nfs[name]

    def chain(self, name: str) -> ChainSummary:
        return self.chains[name]


#: The run context the CLI entered, if any (see :class:`RunContext`).
_ACTIVE_RUN: Optional["RunContext"] = None


class RunContext:
    """The run flags one CLI invocation hands every scenario it builds.

    Experiment modules construct their scenarios internally, so the CLI
    cannot pass ``--trace``, ``--sanitize`` or ``--fault-plan`` to each
    one.  It enters one context around the whole run instead::

        with RunContext(session=session, sanitizer=sanitizer,
                        fault_plan=plan) as ctx:
            print(module.main())

    and :meth:`ScenarioBase.run` hands each scenario to :meth:`attach`
    (read through :func:`current_run_context`) before starting.  Each
    builder names the parts it takes in its ``RUN_PARTS``.
    :attr:`attached` counts the runs each part joined, so the CLI can
    reject a flag that no run accepted.
    """

    def __init__(self, session: Optional["ObsSession"] = None,
                 sanitizer: Optional["Sanitizer"] = None,
                 fault_plan: Optional["FaultPlan"] = None):
        self.session = session
        self.sanitizer = sanitizer
        self.fault_plan = fault_plan
        #: part -> runs it attached to; ``stream`` is the session's
        #: snapshot streamer.
        self.attached: Dict[str, int] = dict.fromkeys(
            ScenarioBase.RUN_PARTS, 0)

    def __enter__(self) -> "RunContext":
        global _ACTIVE_RUN
        if _ACTIVE_RUN is not None:
            raise RuntimeError("a run context is already active")
        _ACTIVE_RUN = self
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _ACTIVE_RUN
        _ACTIVE_RUN = None

    def attach(self, scenario: "ScenarioBase") -> None:
        """Attach the parts ``scenario`` takes, in order: the session,
        the sanitizer, then the fault plan unless a platform already
        carries its own."""
        takes = scenario.RUN_PARTS
        session = self.session
        if session is not None and "session" in takes:
            session.attach(scenario)
            self.attached["session"] += 1
            if session.streamer is not None and "stream" in takes:
                self.attached["stream"] += 1
        if self.sanitizer is not None and "sanitizer" in takes:
            self.sanitizer.attach(scenario)
            self.attached["sanitizer"] += 1
        if (self.fault_plan is not None and "fault_plan" in takes
                and all(mgr.faults is None
                        for _host, mgr in scenario.platforms)):
            scenario.attach_faults(self.fault_plan)
            self.attached["fault_plan"] += 1


def current_run_context() -> Optional[RunContext]:
    """The context the CLI entered, or None outside one."""
    return _ACTIVE_RUN


class ScenarioBase:
    """What :class:`Scenario` and ``ClusterScenario`` share: SLO classes
    and the one run lifecycle, :meth:`run` and its summary.

    A builder sets ``generator`` and ``observer`` (the
    :class:`~repro.obs.observer.Observer` its platforms share, or None)
    and supplies four things:

    * :attr:`platforms` — one ``(host name or None, NFManager)`` pair per
      platform; None names the one platform of a single host;
    * :attr:`links` — the fabric links between them (none on one host);
    * :meth:`_prepare_run` — its pre-start wiring, returning the control
      loops :meth:`run` starts after the sampler;
    * :meth:`_resilience` — the result's ``resilience`` block.

    :attr:`RUN_PARTS` names the :class:`RunContext` parts it takes.
    """

    #: The :class:`RunContext` parts this builder takes.
    RUN_PARTS: Tuple[str, ...] = ("session", "stream", "sanitizer",
                                  "fault_plan")
    links: Sequence[Any] = ()
    platforms: List[Tuple[Optional[str], NFManager]]
    generator: TrafficGenerator
    observer: Any

    def __init__(self, scheduler: str, features: str, seed: int,
                 config: Optional[PlatformConfig], **config_overrides):
        self.scheduler = scheduler
        self.features = features
        self.loop = EventLoop()
        self.rng_factory = RngFactory(seed)
        self.config = feature_config(features, config, **config_overrides)
        #: SLO class name -> end-to-end sojourn budget (ns).
        self._slo_classes: Dict[str, int] = {}
        #: The running sampler (a scaled-out chain adds its probe).
        self._sampler: Optional[IntervalSampler] = None

    def add_slo_class(self, name: str, slo_us: float) -> None:
        """Declare an SLO class: an end-to-end p99 sojourn budget (µs).

        Flows join a class via ``add_flow(..., slo_class=name)``; the
        budget lands on :attr:`repro.platform.packet.Flow.slo_ns`, where
        deadline-aware schedulers and the SLO governor read it.
        """
        self._slo_classes[name] = slo_budget_ns(slo_us)

    def _slo_ns(self, slo_class: Optional[str]) -> Optional[int]:
        """The budget of ``slo_class`` (None for no class)."""
        if slo_class is None:
            return None
        if slo_class not in self._slo_classes:
            raise ValueError(
                f"undeclared SLO class {slo_class!r}; declare it with "
                f"add_slo_class() first")
        return self._slo_classes[slo_class]

    def telemetry_observer(self) -> Any:
        """The observer every platform shares, attached first if there is
        none, with a flow-latency tracker and a causality tracer unless it
        holds a latency tracker already."""
        from repro.obs.observer import Observer

        obs = self.observer
        if obs is None:
            obs = Observer()
            for _host, mgr in self.platforms:
                mgr.attach_observability(obs)
        if obs.latency is None:
            from repro.obs.causality import CausalityTracer
            from repro.obs.latency import FlowLatencyTracker

            obs.latency, obs.causality = FlowLatencyTracker(), CausalityTracer()
        return obs

    def _prepare_run(self) -> Sequence[Any]:
        raise NotImplementedError

    def _resilience(self, duration_s: float) -> Dict[str, Any]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, duration_s: float = 2.0,
            extra_probes: Optional[Dict[str, Tuple]] = None) -> ScenarioResult:
        """Run for ``duration_s`` simulated seconds and summarise."""
        if not (math.isfinite(duration_s) and duration_s > 0):
            raise ValueError(
                f"duration_s must be finite and positive, got {duration_s!r}")
        ctx = current_run_context()
        controls: Sequence[Any] = ()
        if not any(mgr._started for _host, mgr in self.platforms):
            controls = self._prepare_run()
            if ctx is not None:
                ctx.attach(self)
        sampler = self._sampler = IntervalSampler(self.loop, SEC)
        for _host, mgr in self.platforms:
            for chain in mgr.chains.values():
                add_tput_probe(sampler, chain)
        if extra_probes:
            for name, (fn, rate) in extra_probes.items():
                sampler.add_probe(name, fn, rate=rate)
        for _host, mgr in self.platforms:
            mgr.start()
        self.generator.start()
        sampler.start()
        for control in controls:
            control.start()
        self.loop.run_until(self.loop.now + int(duration_s * SEC))
        for _host, mgr in self.platforms:
            mgr.finalize()
        result = self._summarise(duration_s, sampler)
        if ctx is not None and ctx.sanitizer is not None:
            result.sanitizer_violations = ctx.sanitizer.finish_run(self)
        return result

    def _summarise(self, duration_s: float,
                   sampler: IntervalSampler) -> ScenarioResult:
        horizon_ns = duration_s * SEC
        chains: Dict[str, ChainSummary] = {}
        nfs: Dict[str, NFSummary] = {}
        utilization: Dict[int, float] = {}
        slo: Dict[str, Any] = {}
        completed = handed_off = wasted = entry = 0
        for _host, mgr in self.platforms:
            # A cluster host's cores key as host_index * 100 + core_id.
            core_base = mgr.core_track_base
            completed += mgr.total_completed
            wasted += mgr.total_wasted_drops
            entry += mgr.total_entry_discards
            for chain in mgr.chains.values():
                chains[chain.name] = ChainSummary.from_chain(
                    chain, duration_s, sampler)
                handed_off += chain.handed_off
            for nf in mgr.nfs:
                nfs[nf.name] = NFSummary.from_nf(nf, duration_s, core_base)
            for core_id, core in mgr.cores.items():
                utilization[core_base + core_id] = \
                    core.stats.utilization(horizon_ns)
            if mgr.slo_governor is not None:
                slo = mgr.slo_governor.summary()
        obs = self.observer
        return ScenarioResult(
            scheduler=self.scheduler,
            features=self.features,
            duration_s=duration_s,
            # A leg that hands its packets to the next host delivers
            # nothing.
            total_throughput_pps=(completed - handed_off) / duration_s,
            total_wasted_pps=wasted / duration_s,
            total_entry_discard_pps=entry / duration_s,
            chains=chains,
            nfs=nfs,
            core_utilization=utilization,
            series=dict(sampler.series),
            resilience=self._resilience(duration_s),
            loop_stats=self.loop.stats_dict(),
            flow_latency=(obs.latency.to_dict()
                          if obs is not None and obs.latency is not None
                          else {}),
            causality=(obs.causality.summary(self.loop.now)
                       if obs is not None and obs.causality is not None
                       else {}),
            slo=slo,
        )


class Scenario(ScenarioBase):
    """Builder + runner for one platform configuration."""

    def __init__(
        self,
        scheduler: str = "BATCH",
        features: str = "NFVnice",
        config: Optional[PlatformConfig] = None,
        seed: int = 0,
        telemetry: bool = False,
        slo_governor: Optional[bool] = None,
        spare_cores: Sequence[int] = (),
        **config_overrides,
    ):
        super().__init__(scheduler, features, seed, config,
                         **config_overrides)
        #: When True, run() attaches a FlowLatencyTracker and a
        #: CausalityTracer (which an ObsSession then records).
        self.telemetry = telemetry
        #: SLO control loop: None = auto (on for the DEADLINE scheduler
        #: when SLO classes are declared and cgroups are enabled), or
        #: force with True/False.  The governor needs live percentile
        #: telemetry, so activating it also turns ``telemetry`` on.
        self.slo_governor = slo_governor
        #: Cores the governor may migrate a bottleneck NF onto.
        self.spare_cores = list(spare_cores)
        self.manager = NFManager(self.loop, scheduler=scheduler, config=self.config)
        self.platforms = [(None, self.manager)]
        self.generator = TrafficGenerator(
            self.loop, self.manager.nic,
            rng=self.rng_factory.stream("traffic"),
        )
        #: chain name -> tightest SLO budget (ns) among its flows.
        self._chain_slo_ns: Dict[str, int] = {}

    @property
    def observer(self) -> Any:
        """The manager's observer (a hand-attached one included)."""
        return self.manager.obs

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def add_nf(
        self,
        name: str,
        cost: Union[float, int, CostModel],
        core: int = 0,
        **kwargs,
    ) -> NFProcess:
        model = FixedCost(float(cost)) if isinstance(cost, (int, float)) else cost
        nf = NFProcess(name, model, config=self.config, **kwargs)
        self.manager.add_nf(nf, core_id=core)
        return nf

    def add_chain(self, name: str, nf_names: Sequence[str]) -> ServiceChain:
        try:
            nfs = [self.manager.nf_by_name(n) for n in nf_names]
        except KeyError as exc:
            raise ValueError(
                f"chain {name!r}: unknown NF {exc.args[0]!r}") from None
        return self.manager.add_chain(name, nfs)

    def add_flow(
        self,
        flow_id: str,
        chain_name: str,
        rate_pps: Optional[float] = None,
        line_rate_fraction: Optional[float] = None,
        pkt_size: int = 64,
        protocol: str = "udp",
        slo_class: Optional[str] = None,
        **spec_kwargs,
    ) -> Flow:
        """Create a flow, steer it into a chain, and register its load.

        Give either an absolute ``rate_pps`` or a ``line_rate_fraction`` of
        the NIC's 64-byte-equivalent line rate for this packet size.
        ``slo_class`` names a class declared with :meth:`add_slo_class`.
        """
        slo_ns = self._slo_ns(slo_class)
        chain = self.manager.chains.get(chain_name)
        if chain is None:
            raise ValueError(
                f"flow {flow_id!r}: unknown chain {chain_name!r}")
        flow = Flow(flow_id, pkt_size=pkt_size, protocol=protocol,
                    slo_ns=slo_ns)
        if slo_ns is not None:
            tightest = self._chain_slo_ns.get(chain_name)
            if tightest is None or slo_ns < tightest:
                self._chain_slo_ns[chain_name] = slo_ns
        self.manager.install_flow(flow, chain)
        if rate_pps is None:
            if line_rate_fraction is None:
                raise ValueError("need rate_pps or line_rate_fraction")
            rate_pps = line_rate_fraction * line_rate_pps(
                pkt_size, self.manager.nic.link_bps
            )
        self.generator.add_flow(flow, rate_pps, **spec_kwargs)
        return flow

    def attach_faults(self, plan, policy=None) -> None:
        """Attach a fault plan, wiring stochastic onsets to this
        scenario's seeded ``faults`` RNG stream."""
        self.manager.attach_faults(
            plan, policy=policy, rng=self.rng_factory.stream("faults"))

    # ------------------------------------------------------------------
    # Run hooks
    # ------------------------------------------------------------------
    def _prepare_run(self) -> Sequence[Any]:
        """Telemetry, when asked for or needed by the SLO governor, and
        the governor itself."""
        mgr = self.manager
        governor_on = self._governor_enabled()
        if governor_on:
            # The governor projects misses from live p99 snapshots; it
            # needs the tracker attached.
            self.telemetry = True
        if self.telemetry:
            self.telemetry_observer()
        if governor_on and mgr.slo_governor is None:
            from repro.core.monitor import SLOGovernor

            mgr.attach_slo_governor(SLOGovernor(
                mgr, self._chain_slo_ns, spare_cores=self.spare_cores))
        return ()

    def _governor_enabled(self) -> bool:
        """Should run() wire an SLO governor?  Explicit flag wins; auto
        mode turns it on for the DEADLINE scheduler when SLO classes are
        declared and cgroups (hence the Monitor) are enabled."""
        if not self._chain_slo_ns or not self.config.enable_cgroups:
            return False
        if self.slo_governor is not None:
            return self.slo_governor
        return (isinstance(self.scheduler, str)
                and self.scheduler.strip().upper()
                in ("DEADLINE", "DEADLINE_CFS", "DL"))

    def _resilience(self, duration_s: float) -> Dict[str, Any]:
        faults = self.manager.faults
        return ({} if faults is None
                else faults.summary(horizon_ns=int(duration_s * SEC)))


def build_linear_chain(
    scenario: Scenario,
    costs: Sequence[float],
    core: Union[int, Sequence[int]] = 0,
    chain_name: str = "chain",
    nf_prefix: str = "nf",
) -> ServiceChain:
    """Convenience: NFs ``nf1..nfN`` with the given costs in one chain.

    ``core`` may be a single core id (all NFs share it) or one id per NF
    (the multi-core pinning of §4.2.2).
    """
    if isinstance(core, int):
        cores = [core] * len(costs)
    else:
        cores = list(core)
        if len(cores) != len(costs):
            raise ValueError("one core id per NF required")
    names = []
    for i, (cost, core_id) in enumerate(zip(costs, cores), start=1):
        name = f"{nf_prefix}{i}"
        scenario.add_nf(name, cost, core=core_id)
        names.append(name)
    return scenario.add_chain(chain_name, names)
