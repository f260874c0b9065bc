"""repro — a reproduction of *NFVnice: Dynamic Backpressure and Scheduling
for NFV Service Chains* (Kulkarni et al., SIGCOMM 2017).

The package implements the complete NFVnice system — rate-cost
proportional CPU scheduling via cgroup weights, chain-level backpressure
with selective early discard, ECN marking, and asynchronous double-
buffered NF I/O — on top of a cycle-accurate discrete-event model of the
OpenNetVM platform and the Linux CFS/RR schedulers.

Quick start::

    from repro import (EventLoop, NFManager, PlatformConfig, Flow,
                       TrafficGenerator, make_nf, SEC)

    loop = EventLoop()
    mgr = NFManager(loop, scheduler="BATCH", config=PlatformConfig())
    nfs = [mgr.add_nf(make_nf(f"nf{i}", cost, config=mgr.config), core_id=0)
           for i, cost in enumerate((120, 270, 550), start=1)]
    chain = mgr.add_chain("chain", nfs)
    flow = Flow("f0")
    mgr.install_flow(flow, chain)

    gen = TrafficGenerator(loop, mgr.nic)
    gen.add_line_rate_flows([flow])
    mgr.start(); gen.start()
    loop.run_until(1 * SEC)
    print(chain.completed, "packets completed")
"""

from repro.core import (
    AsyncIOContext,
    BackpressureController,
    CallbackNF,
    DiskDevice,
    ECNMarker,
    MonitorThread,
    NFProcess,
    SyncIOContext,
    compute_shares,
)
from repro.metrics import IntervalSampler, TimeSeries, jain_index, render_table
from repro.nfs import (
    ChoiceCost,
    ExponentialCost,
    FixedCost,
    NormalCost,
    UniformCost,
    make_bridge,
    make_dpi,
    make_encryptor,
    make_firewall,
    make_logger,
    make_misbehaving,
    make_monitor,
    make_nf,
)
from repro.platform import (
    NIC,
    Flow,
    FlowTable,
    NFManager,
    PacketRing,
    PlatformConfig,
    ServiceChain,
    build_topology,
    line_rate_pps,
    load_topology,
)
from repro.platform.config import default_platform_config
from repro.sched import (
    CFSBatchScheduler,
    CFSScheduler,
    Core,
    RRScheduler,
    make_scheduler,
)
from repro.sim import MSEC, SEC, USEC, EventLoop, RngFactory
from repro.traffic import FlowSpec, TCPFlow, TrafficGenerator

__version__ = "1.0.0"

__all__ = [
    # simulation
    "EventLoop",
    "RngFactory",
    "SEC",
    "MSEC",
    "USEC",
    # platform
    "NFManager",
    "PlatformConfig",
    "default_platform_config",
    "Flow",
    "FlowTable",
    "ServiceChain",
    "PacketRing",
    "NIC",
    "line_rate_pps",
    "build_topology",
    "load_topology",
    # schedulers
    "make_scheduler",
    "CFSScheduler",
    "CFSBatchScheduler",
    "RRScheduler",
    "Core",
    # NFVnice core
    "NFProcess",
    "CallbackNF",
    "BackpressureController",
    "MonitorThread",
    "ECNMarker",
    "compute_shares",
    "DiskDevice",
    "AsyncIOContext",
    "SyncIOContext",
    # NFs and cost models
    "make_nf",
    "make_bridge",
    "make_monitor",
    "make_firewall",
    "make_dpi",
    "make_encryptor",
    "make_logger",
    "make_misbehaving",
    "FixedCost",
    "ChoiceCost",
    "NormalCost",
    "UniformCost",
    "ExponentialCost",
    # traffic
    "TrafficGenerator",
    "FlowSpec",
    "TCPFlow",
    # metrics
    "jain_index",
    "render_table",
    "TimeSeries",
    "IntervalSampler",
]
