"""Worker-side task execution.

``run_task_wire`` is pure (spec in, payload dict out) and is also used
in-process by tests; ``serve`` is the body of a long-lived pool worker.
It reads wire specs from its pipe, runs each with ``run_task_wire`` and
sends the payload back as JSON text, the same text for every worker
count, until the parent sends ``None`` or closes the pipe.

Any exception inside a task is caught and reported as an ``error``
payload, and the worker goes on to its next task.  Only a hard crash
(segfault, kill, ``os._exit``) ends a worker mid-task; the parent sees
EOF on the pipe, fails that one attempt as crashed and forks a
replacement.  Crash isolation means a dying worker fails its task, never
the campaign.
"""

from __future__ import annotations

import importlib
import json
import time
import traceback
from typing import Any, Dict


def run_task_wire(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one wire-format task spec; never raises."""
    t0 = time.perf_counter()
    try:
        module = importlib.import_module(spec["module"])
        fn = getattr(module, spec["fn"])
        value = fn(**spec["kwargs"])
        payload = _encode_result(value)
    except Exception:
        payload = {"kind": "error", "error": traceback.format_exc()}
    payload["wall_s"] = time.perf_counter() - t0
    return payload


def _encode_result(value: Any) -> Dict[str, Any]:
    from repro.experiments.common import ScenarioResult

    if isinstance(value, ScenarioResult):
        from repro.analysis.export import result_to_dict

        payload: Dict[str, Any] = {
            "kind": "scenario", "value": result_to_dict(value),
        }
        # Telemetry travels in a sibling key: the campaign digest hashes
        # only payload["value"], so enabling telemetry cannot perturb it.
        if value.flow_latency or value.causality or value.slo:
            payload["telemetry"] = {
                "flow_latency": value.flow_latency,
                "causality": value.causality,
                "slo": value.slo,
            }
        return payload
    if isinstance(value, str):
        return {"kind": "text", "value": value}
    return {
        "kind": "error",
        "error": f"task returned unsupported type {type(value).__name__}; "
                 f"expected ScenarioResult or str",
    }


def serve(conn) -> None:
    """Pool worker target: answer wire specs on ``conn`` until stopped."""
    while True:
        try:
            spec = conn.recv()
        except EOFError:        # the parent is gone
            return
        if spec is None:
            return
        conn.send_bytes(json.dumps(run_task_wire(spec)).encode())
