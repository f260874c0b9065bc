"""Declarative topology construction (the paper's Flow Rule Installer).

"Service chains can be configured during system startup using simple
configuration files or from an external orchestrator such as an SDN
controller" (§3.1).  :func:`build_topology` accepts exactly such a
description — a plain dict (or a JSON file via :func:`load_topology`) —
and assembles the platform: NFs with cost models and core pinning,
service chains, flows, and generator specs.

Example specification::

    {
      "scheduler": "BATCH",
      "nfs": [
        {"name": "fw",  "cycles": 550, "core": 0},
        {"name": "dpi", "cycles": 2200, "core": 0},
        {"name": "nat", "cost": {"kind": "choice",
                                 "values": [120, 270, 550]}, "core": 1}
      ],
      "chains": [
        {"name": "edge", "nfs": ["fw", "dpi", "nat"]}
      ],
      "flows": [
        {"id": "f0", "chain": "edge", "rate_pps": 2e6, "pkt_size": 64},
        {"id": "f1", "chain": "edge", "line_rate_fraction": 0.5,
         "protocol": "tcp", "start_s": 5.0}
      ]
    }
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.platform.config import PlatformConfig
from repro.platform.manager import NFManager
from repro.platform.nic import line_rate_pps
from repro.platform.packet import Flow
from repro.sim.clock import SEC
from repro.sim.engine import EventLoop
from repro.sim.rng import RngFactory
from repro.traffic.generator import TrafficGenerator


class TopologyError(ValueError):
    """A malformed topology specification."""


@dataclass
class Topology:
    """A fully constructed platform, ready to run."""

    loop: EventLoop
    manager: NFManager
    generator: TrafficGenerator
    flows: Dict[str, Flow] = field(default_factory=dict)

    def run(self, duration_s: float) -> None:
        self.manager.start()
        self.generator.start()
        self.loop.run_until(self.loop.now + int(duration_s * SEC))
        self.manager.finalize()


def _build_cost(spec: Dict[str, Any],
                rng: np.random.Generator):
    # Imported lazily: the nfs package's catalog depends on repro.core.nf,
    # which in turn imports repro.platform.
    from repro.nfs.cost_models import (
        ChoiceCost,
        ExponentialCost,
        FixedCost,
        NormalCost,
        UniformCost,
    )

    kind = spec.get("kind", "fixed")
    if kind == "fixed":
        return FixedCost(_require(spec, "cycles"))
    if kind == "choice":
        return ChoiceCost(_require(spec, "values"),
                          spec.get("probabilities"), rng=rng)
    if kind == "normal":
        return NormalCost(_require(spec, "mean"), _require(spec, "std"),
                          rng=rng)
    if kind == "uniform":
        return UniformCost(_require(spec, "low"), _require(spec, "high"),
                           rng=rng)
    if kind == "exponential":
        return ExponentialCost(_require(spec, "mean"), rng=rng)
    raise TopologyError(f"unknown cost kind {kind!r}")


def _require(spec: Dict[str, Any], key: str):
    if key not in spec:
        raise TopologyError(f"cost spec missing {key!r}: {spec!r}")
    return spec[key]


def _objects(spec: Dict[str, Any], key: str) -> List[Dict[str, Any]]:
    """``spec[key]`` as a list of JSON objects (absent means empty)."""
    entries = spec.get(key, [])
    if not isinstance(entries, list):
        raise TopologyError(f"{key}: expected a list, got {entries!r}")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise TopologyError(
                f"{key}[{i}]: expected a JSON object, got {entry!r}")
    return entries


def _flow_time_ns(flow_spec: Dict[str, Any], i: int,
                  key: str) -> Optional[int]:
    """``flows[i].<key>`` (seconds) in ns; None when absent."""
    if key not in flow_spec:
        return None
    seconds = float(flow_spec[key])
    if not math.isfinite(seconds):
        raise TopologyError(
            f"flows[{i}].{key}: expected a finite number, got {seconds!r}")
    return int(seconds * SEC)


def build_topology(
    spec: Dict[str, Any],
    config: Optional[PlatformConfig] = None,
    seed: int = 0,
) -> Topology:
    """Assemble a platform from a declarative specification."""
    if not isinstance(spec, dict):
        raise TopologyError("topology spec must be a mapping")
    loop = EventLoop()
    rng_factory = RngFactory(seed)
    cfg = config if config is not None else PlatformConfig()
    manager = NFManager(loop, scheduler=spec.get("scheduler", "BATCH"),
                        config=cfg)
    generator = TrafficGenerator(loop, manager.nic,
                                 rng=rng_factory.stream("traffic"))
    topology = Topology(loop=loop, manager=manager, generator=generator)
    # Imported here: repro.core.nf itself depends on repro.platform.
    from repro.core.nf import NFProcess
    from repro.nfs.cost_models import FixedCost

    nf_specs = _objects(spec, "nfs")
    if not nf_specs:
        raise TopologyError("topology needs at least one NF")
    for i, nf_spec in enumerate(nf_specs):
        name = nf_spec.get("name")
        if not name:
            raise TopologyError(f"NF without a name: {nf_spec!r}")
        if "cycles" in nf_spec:
            cost = FixedCost(float(nf_spec["cycles"]))
        elif "cost" in nf_spec:
            if not isinstance(nf_spec["cost"], dict):
                raise TopologyError(f"nfs[{i}].cost: expected a JSON "
                                    f"object, got {nf_spec['cost']!r}")
            cost = _build_cost(nf_spec["cost"],
                               rng_factory.stream(f"cost-{name}"))
        else:
            raise TopologyError(f"NF {name!r} needs 'cycles' or 'cost'")
        nf = NFProcess(
            name, cost, config=cfg,
            priority=float(nf_spec.get("priority", 1.0)),
            busy_loop=bool(nf_spec.get("busy_loop", False)),
        )
        manager.add_nf(nf, core_id=int(nf_spec.get("core", 0)))

    for chain_spec in _objects(spec, "chains"):
        name = chain_spec.get("name")
        members = chain_spec.get("nfs")
        if not name or not members:
            raise TopologyError(f"bad chain spec: {chain_spec!r}")
        try:
            nfs = [manager.nf_by_name(m) for m in members]
        except KeyError as exc:
            raise TopologyError(f"chain {name!r} references unknown NF "
                                f"{exc.args[0]!r}") from exc
        manager.add_chain(name, nfs)

    for i, flow_spec in enumerate(_objects(spec, "flows")):
        flow_id = flow_spec.get("id")
        chain_name = flow_spec.get("chain")
        if not flow_id or chain_name not in manager.chains:
            raise TopologyError(f"bad flow spec: {flow_spec!r}")
        pkt_size = int(flow_spec.get("pkt_size", 64))
        flow = Flow(flow_id, pkt_size=pkt_size,
                    protocol=flow_spec.get("protocol", "udp"))
        manager.install_flow(flow, manager.chains[chain_name])
        if "rate_pps" in flow_spec:
            rate = float(flow_spec["rate_pps"])
        elif "line_rate_fraction" in flow_spec:
            rate = float(flow_spec["line_rate_fraction"]) * line_rate_pps(
                pkt_size, manager.nic.link_bps)
        else:
            raise TopologyError(
                f"flow {flow_id!r} needs 'rate_pps' or 'line_rate_fraction'")
        generator.add_flow(
            flow, rate,
            start_ns=_flow_time_ns(flow_spec, i, "start_s") or 0,
            stop_ns=_flow_time_ns(flow_spec, i, "stop_s"),
            pattern=flow_spec.get("pattern", "cbr"),
        )
        topology.flows[flow_id] = flow

    faults_spec = spec.get("faults")
    if faults_spec is not None:
        from repro.faults.plan import FaultPlan

        try:
            plan = FaultPlan.from_dict(faults_spec)
        except (TypeError, ValueError) as exc:
            raise TopologyError(f"bad faults section: {exc}") from exc
        manager.attach_faults(plan, rng=rng_factory.stream("faults"))

    return topology


def load_topology(path: Union[str, Path],
                  config: Optional[PlatformConfig] = None,
                  seed: int = 0) -> Topology:
    """Build a topology from a JSON file."""
    with open(path) as fh:
        spec = json.load(fh)
    return build_topology(spec, config=config, seed=seed)
