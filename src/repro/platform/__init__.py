"""The OpenNetVM-style NFV platform substrate (paper §3.1, Figure 2).

NFVnice is implemented on OpenNetVM: a DPDK-based platform where an NF
Manager owns the NIC, ferries packet descriptors through shared-memory
rings, and NFs run as separate processes.  This package models that
substrate:

* :mod:`~repro.platform.packet` — flows and the segment representation
  (runs of same-flow packets) that queues carry.
* :mod:`~repro.platform.ring` — bounded descriptor rings with watermark
  feedback on enqueue, the structure backpressure is built on.
* :mod:`~repro.platform.chain` — service chains (sequences of NFs), which
  may share NF instances (Figure 8) and may be defined per flow.
* :mod:`~repro.platform.flow_table` — flow → chain lookup used by the Rx
  thread.
* :mod:`~repro.platform.nic` — 10 GbE port model and line-rate arithmetic.
* :mod:`~repro.platform.rx` / :mod:`~repro.platform.tx` — the manager's
  polling threads that move descriptors NIC→NF and NF→NF/NIC.
* :mod:`~repro.platform.wakeup` — the wakeup subsystem that posts NF
  semaphores, gated by backpressure when NFVnice is enabled.
* :mod:`~repro.platform.manager` — the NF Manager that wires it together.
"""

from repro.platform.chain import ServiceChain
from repro.platform.config import PlatformConfig
from repro.platform.flow_table import FlowTable
from repro.platform.manager import NFManager
from repro.platform.orchestrator import Topology, build_topology, load_topology
from repro.platform.nic import NIC, line_rate_pps
from repro.platform.packet import Flow, PacketSegment
from repro.platform.ring import PacketRing

__all__ = [
    "Flow",
    "PacketSegment",
    "PacketRing",
    "ServiceChain",
    "FlowTable",
    "NIC",
    "line_rate_pps",
    "NFManager",
    "PlatformConfig",
    "Topology",
    "build_topology",
    "load_topology",
]
