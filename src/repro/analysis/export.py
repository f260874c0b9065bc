"""Serialising scenario results.

``ScenarioResult`` is a tree of dataclasses plus time series; these
helpers flatten it to JSON-compatible dicts so that experiment outputs
can be archived next to the code revision that produced them and diffed
run-over-run (the reproduction's equivalent of keeping the testbed's raw
measurement logs).
"""

from __future__ import annotations

#: Digest-safety contract marker, verified by ``repro check --deep``
#: (SIM603) against ``repro.check.registry.MARKED_MODULES``.
__digest_safety__ = "digest-checked: serialises the digest payload"

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.check.sanitizer import SanitizerViolation
from repro.experiments.common import ChainSummary, NFSummary, ScenarioResult
from repro.metrics.timeseries import TimeSeries


def result_to_dict(result: ScenarioResult,
                   include_series: bool = True,
                   include_telemetry: bool = False) -> Dict[str, Any]:
    """Flatten a :class:`ScenarioResult` into JSON-compatible data.

    ``flow_latency`` and ``causality`` (like ``loop_stats``) are excluded
    by default: the default output feeds the campaign digests, which must
    be bit-identical with telemetry enabled or disabled.  Pass
    ``include_telemetry=True`` to archive them alongside the result.
    """
    out: Dict[str, Any] = {
        "scheduler": result.scheduler,
        "features": result.features,
        "duration_s": result.duration_s,
        # No field feeds this key any more; it stays so that every digest
        # is unchanged until a deliberate rebaseline.
        "sched_trace_dropped": 0,
        "total_throughput_pps": result.total_throughput_pps,
        "total_wasted_pps": result.total_wasted_pps,
        "total_entry_discard_pps": result.total_entry_discard_pps,
        "chains": {name: dataclasses.asdict(c)
                   for name, c in result.chains.items()},
        "nfs": {name: dataclasses.asdict(n)
                for name, n in result.nfs.items()},
        "core_utilization": {str(k): v
                             for k, v in result.core_utilization.items()},
        "resilience": result.resilience,
        # Always present (empty on clean or unsanitized runs) so that a
        # sanitize-clean run digests identically to a normal run.
        "sanitizer_violations": [v.to_dict()
                                 for v in result.sanitizer_violations],
    }
    if include_series:
        out["series"] = {
            name: {"times": list(ts.times), "values": list(ts.values)}
            for name, ts in result.series.items()
        }
    if include_telemetry:
        out["flow_latency"] = result.flow_latency
        out["causality"] = result.causality
    return out


def save_result(result: ScenarioResult, path: Union[str, Path],
                include_series: bool = True) -> Path:
    """Write a result as JSON; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(result_to_dict(result, include_series), fh, indent=2)
    return path


def load_result_dict(path: Union[str, Path]) -> Dict[str, Any]:
    """Read back a saved result (as a plain dict — sufficient for
    comparisons and plotting; the live object graph is not recreated)."""
    with open(path) as fh:
        return json.load(fh)


def series_from_dict(data: Dict[str, Any], name: str = "") -> TimeSeries:
    """Rebuild a :class:`TimeSeries` from its exported form."""
    ts = TimeSeries(name)
    for t, v in zip(data["times"], data["values"]):
        ts.append(int(t), float(v))
    return ts


def result_from_dict(data: Dict[str, Any]) -> ScenarioResult:
    """Rebuild a live :class:`ScenarioResult` from its exported form.

    Inverse of :func:`result_to_dict`: ``result_from_dict(result_to_dict(r))``
    compares equal field-by-field (time series included when exported).
    """
    chains = {
        name: ChainSummary(**{**c, "tput_series": tuple(c["tput_series"])})
        for name, c in data.get("chains", {}).items()
    }
    nfs = {name: NFSummary(**n) for name, n in data.get("nfs", {}).items()}
    series = {
        name: series_from_dict(s, name)
        for name, s in data.get("series", {}).items()
    }
    return ScenarioResult(
        scheduler=data["scheduler"],
        features=data["features"],
        duration_s=data["duration_s"],
        total_throughput_pps=data["total_throughput_pps"],
        total_wasted_pps=data["total_wasted_pps"],
        total_entry_discard_pps=data["total_entry_discard_pps"],
        chains=chains,
        nfs=nfs,
        core_utilization={int(k): v
                          for k, v in data.get("core_utilization", {}).items()},
        series=series,
        resilience=data.get("resilience", {}),
        sanitizer_violations=[
            SanitizerViolation.from_dict(v)
            for v in data.get("sanitizer_violations", [])
        ],
        flow_latency=data.get("flow_latency", {}),
        causality=data.get("causality", {}),
    )


def load_result(path: Union[str, Path]) -> ScenarioResult:
    """Read a saved result back as a live :class:`ScenarioResult`."""
    return result_from_dict(load_result_dict(path))
