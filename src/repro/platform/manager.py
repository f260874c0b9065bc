"""The NF Manager: the top-level object that wires the platform together.

Mirrors Figure 2: a NIC, a Flow Table, Rx/Tx threads on dedicated cores,
the Wakeup subsystem, and — when NFVnice features are enabled — the
backpressure controller, ECN marker, cgroup controller and Monitor
thread.  NFs are placed on shared worker cores, each core running one of
the modelled kernel schedulers.

Typical use::

    mgr = NFManager(loop, scheduler="BATCH", config=PlatformConfig())
    nf1 = NFProcess("nf1", FixedCost(120), config=mgr.config)
    mgr.add_nf(nf1, core_id=0)
    ...
    chain = mgr.add_chain("chain-A", [nf1, nf2, nf3])
    flow = Flow("f1")
    mgr.install_flow(flow, chain)
    mgr.start()
    # feed mgr.nic via a traffic generator, then loop.run_until(...)
"""

from __future__ import annotations

import numbers
from typing import Callable, Dict, List, Optional, Sequence, Union

from typing import TYPE_CHECKING

from repro.platform.chain import ServiceChain
from repro.platform.config import PlatformConfig
from repro.platform.flow_table import FlowTable
from repro.platform.nic import NIC
from repro.platform.rx import RxThread
from repro.platform.tx import TxThread
from repro.platform.wakeup import WakeupSubsystem
from repro.sched import Core, make_scheduler
from repro.sched.base import Scheduler
from repro.sched.cgroups import CgroupController
from repro.sim.engine import EventLoop

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.backpressure import BackpressureController
    from repro.core.ecn import ECNMarker
    from repro.core.monitor import MonitorThread
    from repro.core.nf import NFProcess

SchedulerSpec = Union[str, Callable[[], Scheduler]]


class NFManager:
    """Builds and runs an NFV platform instance."""

    def __init__(
        self,
        loop: EventLoop,
        scheduler: SchedulerSpec = "BATCH",
        config: Optional[PlatformConfig] = None,
        nic: Optional[NIC] = None,
    ):
        self.loop = loop
        self.config = config if config is not None else PlatformConfig()
        self._scheduler_spec = scheduler
        self.nic = nic if nic is not None else NIC()
        self.flow_table = FlowTable()
        self.chains: Dict[str, ServiceChain] = {}
        self.nfs: List["NFProcess"] = []
        self.cores: Dict[int, Core] = {}
        self._started = False
        #: The instant start() ran: the origin of every poll grid.
        self._epoch = 0

        #: The attached :class:`repro.obs.observer.Observer`
        #: (attach_observability() before start()).
        self.obs = None

        # NFVnice subsystems (wired at start()).
        self.cgroups = CgroupController()
        self.backpressure: Optional["BackpressureController"] = None
        self.ecn: Optional["ECNMarker"] = None
        self.monitor: Optional["MonitorThread"] = None
        self.wakeup: Optional[WakeupSubsystem] = None
        self.rx_thread: Optional[RxThread] = None
        self.tx_threads: List[TxThread] = []

        # Fault injection (attach_faults() before start()).
        self.faults = None

        # SLO control loop (attach_slo_governor() before start()).
        self.slo_governor = None

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def _make_scheduler(self) -> Scheduler:
        if callable(self._scheduler_spec):
            return self._scheduler_spec()
        return make_scheduler(self._scheduler_spec)

    def core(self, core_id: int) -> Core:
        """The worker core ``core_id`` (created on first use)."""
        if core_id not in self.cores:
            core = Core(
                self.loop,
                self._make_scheduler(),
                core_id=core_id,
                ctx_switch_ns=self.config.ctx_switch_ns,
                max_segment_ns=self.config.tx_poll_ns,
                socket=core_id // max(1, self.config.cores_per_socket),
            )
            self.cores[core_id] = core
            if self._started:
                self._wire_observer()
        return self.cores[core_id]

    def add_nf(self, nf: "NFProcess", core_id: int = 0) -> "NFProcess":
        """Place an NF on a worker core.

        Works both before and after :meth:`start`: a late-registered NF (a
        scaled-out replica, a replacement instance) is announced to the
        wakeup scan, the monitor and the least-loaded Tx thread so it
        becomes a first-class platform citizen on the next tick.

        Names must be unique: :meth:`nf_by_name` and the Monitor's per-NF
        bookkeeping key on them, so a duplicate would silently shadow the
        earlier instance.
        """
        if isinstance(core_id, bool) \
                or not isinstance(core_id, numbers.Integral) or core_id < 0:
            raise ValueError(
                f"core must be a non-negative integer, got {core_id!r}")
        for existing in self.nfs:
            if existing.name == nf.name:
                raise ValueError(
                    f"name must be unique: duplicate NF name {nf.name!r}")
        self.core(core_id).add_task(nf)
        self.nfs.append(nf)
        if self._started:
            self._register_live_nf(nf)
        return nf

    def _register_live_nf(self, nf: "NFProcess") -> None:
        """Announce a post-start NF to every subsystem that scans a roster.

        The first NF of a manager started empty (an idle cluster host)
        also arms its wakeup scan and Rx/Tx threads, which stay dormant
        until then (see :meth:`_arm_threads`).
        """
        assert self.wakeup is not None
        self.wakeup.add_nf(nf)
        if self.monitor is not None:
            self.monitor.add_nf(nf)
        # Deterministic least-loaded Tx assignment: min roster size, ties
        # broken by thread order.
        tx = min(self.tx_threads, key=lambda t: len(t.nfs))
        tx.nfs.append(nf)
        if nf.io is not None and getattr(nf.io, "on_unblock", None) is None:
            nf.io.on_unblock = self._io_unblock_callback(nf)
        if self.faults is not None:
            self.faults.watch_nf(nf)
        self._wire_observer()
        if len(self.nfs) == 1:
            self._arm_threads()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def attach_observability(self, observer) -> None:
        """Attach an :class:`repro.obs.observer.Observer` (``None``
        detaches) before :meth:`start`, which wires it into the
        components.  With nothing attached the data path pays one
        ``is not None`` branch per event site."""
        if self._started:
            raise RuntimeError("attach observability before start()")
        self.obs = observer

    def _wire_observer(self) -> None:
        """Hand the observer to each component whose events one of its
        sinks consumes; an unconsumed site (a telemetry-only run's rings)
        keeps its ``None`` fast path.  The only place ``obs`` is wired:
        :meth:`start` calls it, and so does a late core or NF."""
        obs = self.obs
        if obs is None:
            return
        events = obs.serving("bus")
        for core in self.cores.values():
            core.obs = obs.serving("bus", "causality")
            core.bus_obs = events
        for nf in self.nfs:
            nf.obs = obs.serving("latency")
            nf.rx_ring.obs = nf.tx_ring.obs = events
        self.nic.rx_ring.obs = events
        for part in (self.wakeup, self.ecn, self.monitor, self.faults):
            if part is not None:
                part.obs = events
        for part in (self.backpressure, self.rx_thread):
            if part is not None:
                part.obs = obs.serving("bus", "causality")
        for tx in self.tx_threads:
            tx.obs = obs.serving("latency", "causality")

    def attach_slo_governor(self, governor) -> None:
        """Attach an :class:`repro.core.monitor.SLOGovernor`.

        Call before :meth:`start`.  The governor is handed to the Monitor
        thread at start; it is inert when cgroups are disabled (there is
        no Monitor to evaluate it, and no shares to steer).
        """
        if self._started:
            raise RuntimeError("attach the SLO governor before start()")
        self.slo_governor = governor

    def migrate_nf(self, nf: "NFProcess", core_id: int) -> bool:
        """Chain-aware core reallocation: move ``nf`` onto ``core_id``.

        Models the orchestrator reassigning an NF process's CPU affinity:
        the NF is descheduled from its old core (a running NF loses its
        in-flight batch, exactly like the fault injector's teardown — the
        rings are untouched, so no packets are lost), re-homed, and woken
        on the new core so it resumes on the next dispatch there.
        Returns False when the NF is already on ``core_id``.
        """
        old_core = nf.core
        if old_core is not None and old_core.core_id == core_id:
            return False
        if old_core is not None:
            old_core.deschedule(nf)
            old_core.tasks.remove(nf)
            nf.core = None
        new_core = self.core(core_id)
        new_core.add_task(nf)
        if self._started and self.wakeup is not None:
            # Re-arm the NF on its new core if it has pending work.
            self.wakeup.notify(nf)
        return True

    def add_chain(self, name: str, nfs: Sequence["NFProcess"]) -> ServiceChain:
        """Define a service chain over already-added NFs."""
        if name in self.chains:
            raise ValueError(f"duplicate chain name {name!r}")
        for nf in nfs:
            if nf not in self.nfs:
                raise ValueError(f"{nf.name} was not added to the manager")
        chain = ServiceChain(name, nfs)
        self.chains[name] = chain
        return chain

    def install_flow(self, flow, chain: ServiceChain) -> None:
        """Steer ``flow`` into ``chain`` via the Flow Table."""
        self.flow_table.install(flow, chain)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def attach_faults(self, plan, policy=None, rng=None) -> None:
        """Attach a :class:`repro.faults.plan.FaultPlan` to this platform.

        Call before :meth:`start`.  Builds a
        :class:`repro.faults.injector.FaultInjector` whose onsets, watchdog
        and recovery policy are wired when the platform starts; ``policy``
        (a :class:`repro.faults.recovery.RecoveryPolicy` or registry name)
        and ``rng`` (a stochastic-onset stream) default to what the plan
        itself specifies.
        """
        if self._started:
            raise RuntimeError("attach faults before start()")
        from repro.faults.injector import FaultInjector

        self.faults = FaultInjector(self, plan, policy=policy, rng=rng)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Wire and start the manager threads; idempotent.

        ``now`` becomes the epoch of every poll grid.  The wakeup scan and
        the Rx/Tx threads are armed here only when the manager has an NF;
        an empty manager arms them when its first NF registers, at the
        first points of the same grids after that instant.  An NF-less
        manager has no chain, Tx roster or NF to wake, so its polls could
        only count unroutable packets (a dormant Rx thread leaves them in
        the NIC ring instead).  The Monitor always starts here.
        """
        if self._started:
            return
        self._started = True
        from repro.core.backpressure import BackpressureController
        from repro.core.ecn import ECNMarker
        from repro.core.monitor import MonitorThread

        cfg = self.config
        if cfg.enable_backpressure:
            self.backpressure = BackpressureController(cfg)
        if cfg.enable_ecn:
            self.ecn = ECNMarker(cfg)
        self.wakeup = WakeupSubsystem(self.loop, self.nfs, self.backpressure, cfg)
        self.rx_thread = RxThread(
            self.loop, self.nic, self.flow_table, self.wakeup,
            self.backpressure, cfg, ecn=self.ecn,
        )
        n_tx = max(1, cfg.num_tx_threads)
        partitions: List[List] = [self.nfs[i::n_tx] for i in range(n_tx)]
        self.tx_threads = [
            TxThread(self.loop, part, self.nic, self.wakeup,
                     self.backpressure, self.ecn, cfg)
            for part in partitions if part
        ]
        if not self.tx_threads:
            # An empty manager (an idle cluster host) keeps one thread for
            # the NFs that register later.
            self.tx_threads = [TxThread(self.loop, [], self.nic, self.wakeup,
                                        self.backpressure, self.ecn, cfg)]
        if cfg.enable_cgroups:
            self.monitor = MonitorThread(
                self.loop, self.nfs, self.cgroups, cfg, record_series=True
            )
            if self.slo_governor is not None:
                self.monitor.slo_governor = self.slo_governor
            self.monitor.start()
        self._wire_observer()
        self._apply_numa_penalties()
        # Hook I/O completions into the wakeup path so an NF blocked on
        # full double-buffers resumes as soon as a flush lands.
        for nf in self.nfs:
            if nf.io is not None and getattr(nf.io, "on_unblock", None) is None:
                nf.io.on_unblock = self._io_unblock_callback(nf)
        self._epoch = self.loop.now
        if self.nfs:
            self._arm_threads()
        if self.faults is not None:
            self.faults.wire()

    def _arm_threads(self) -> None:
        """Arm the wakeup scan, the Rx thread and the Tx thread(s), in that
        order, on the grid they would have had from :meth:`start`.

        The only arming path: :meth:`start` takes it when the manager has
        an NF (so every thread fires first one period after the epoch),
        and an empty manager takes it when its first NF registers.  A
        late arm fires each thread at its first grid point after now,
        Tx phase stagger included; until then an NF-less manager's
        threads would have had nothing to do.
        """
        assert self.wakeup is not None and self.rx_thread is not None
        epoch = self._epoch
        self.wakeup.start(epoch=epoch)
        self.rx_thread.start(epoch=epoch)
        stagger = self.config.tx_poll_ns // max(1, len(self.tx_threads))
        for i, tx in enumerate(self.tx_threads):
            tx.start(phase_ns=i * stagger, epoch=epoch)

    def _apply_numa_penalties(self) -> None:
        """Charge cross-socket chain hops (paper §1's NUMA concern).

        An NF whose upstream hop in any chain lives on the other socket
        touches remote memory for every packet; its effective per-packet
        cost grows by ``numa_penalty_cycles``.  Placement-static: computed
        once from the chain topology at start-up.
        """
        penalty = self.config.numa_penalty_cycles
        if penalty <= 0:
            return
        from repro.nfs.cost_models import FixedCost, WithOverhead

        for nf in self.nfs:
            if nf.busy_loop or nf.core is None:
                continue
            remote = False
            for chain, position in nf.chain_positions.values():
                if position == 0:
                    continue
                upstream = chain.nfs[position - 1]
                if upstream.core is not None and \
                        upstream.core.socket != nf.core.socket:
                    remote = True
                    break
            if not remote:
                continue
            nf.numa_remote_input = True
            if isinstance(nf.cost_model, FixedCost):
                nf.cost_model = FixedCost(nf.cost_model.cycles + penalty)
            else:
                nf.cost_model = WithOverhead(nf.cost_model, penalty)

    def _io_unblock_callback(self, nf: "NFProcess"):
        def _cb() -> None:
            assert self.wakeup is not None
            self.wakeup.notify(nf)

        return _cb

    def finalize(self) -> None:
        """Close per-core idle accounting (call once, after the last run)."""
        for core in self.cores.values():
            core.finalize()

    # ------------------------------------------------------------------
    # Aggregate accounting
    # ------------------------------------------------------------------
    @property
    def total_completed(self) -> int:
        """Packets that traversed their full chain and left the NIC."""
        return sum(chain.completed for chain in self.chains.values())

    @property
    def total_wasted_drops(self) -> int:
        """Packets dropped after at least one NF had processed them."""
        return sum(chain.wasted_drops for chain in self.chains.values())

    @property
    def total_entry_discards(self) -> int:
        """Packets shed by backpressure before any processing."""
        return sum(chain.entry_discards for chain in self.chains.values())

    def nf_by_name(self, name: str) -> "NFProcess":
        for nf in self.nfs:
            if nf.name == name:
                return nf
        raise KeyError(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NFManager(nfs={len(self.nfs)}, chains={len(self.chains)}, "
            f"cores={sorted(self.cores)})"
        )
