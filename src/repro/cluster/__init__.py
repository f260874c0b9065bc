"""Multi-node cluster simulation: fabric, steering, auto-scaling.

Grows the single-host NFVnice platform into a datacenter row:

* :mod:`~repro.cluster.fabric` — the wire model
  (:class:`~repro.cluster.fabric.FabricLink`: serialisation, latency,
  queue-cap drops, ECN) every topology edge is built from;
* :mod:`~repro.cluster.topology` — N :class:`~repro.platform.manager.
  NFManager` hosts on one event loop behind an
  :class:`~repro.cluster.topology.IngressPoint`, joined host to host by
  :meth:`~repro.cluster.topology.ClusterTopology.connect` (the §3.3
  cross-host wire);
* :mod:`~repro.cluster.steering` — the ingress load balancer binding
  flows to chain replica :class:`~repro.cluster.steering.Placement`\\ s;
* :mod:`~repro.cluster.autoscaler` — the elastic control loop
  instantiating/draining replicas from Monitor telemetry;
* :mod:`~repro.cluster.scenario` — the builder/runner producing standard
  :class:`~repro.experiments.common.ScenarioResult` objects.
"""

from repro.cluster.autoscaler import Autoscaler, ChainTemplate
from repro.cluster.fabric import FabricLink
from repro.cluster.scenario import ClusterScenario
from repro.cluster.steering import FlowSteerer, Placement
from repro.cluster.topology import (
    ClusterHost,
    ClusterTopology,
    CrossHostLink,
    IngressPoint,
)

__all__ = [
    "Autoscaler",
    "ChainTemplate",
    "ClusterHost",
    "ClusterScenario",
    "ClusterTopology",
    "CrossHostLink",
    "FabricLink",
    "FlowSteerer",
    "IngressPoint",
    "Placement",
]
