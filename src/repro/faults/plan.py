"""Declarative fault plans.

A :class:`FaultPlan` says *what breaks, when, and how the platform should
respond* — it is pure data, serialisable to JSON (and YAML when PyYAML is
installed), so a chaos run is fully described by ``(plan, seed)`` and can
be replayed bit-for-bit.  Each :class:`FaultSpec` names one fault:

========== ============================================================
kind       effect
========== ============================================================
crash      the NF process dies: descheduled mid-quantum, the in-flight
           batch is lost, the manager sheds its arrivals (``nf_dead``)
hang       the NF stops consuming but holds its ring (wedged process);
           arrivals queue until the ring overflows
slowdown   per-packet cost multiplied by ``factor`` (cache thrash, log
           storm, noisy neighbour); the NF still makes progress
ring_stall the Rx ring seals shut: nothing in, nothing out, as if the
           shared-memory segment went away
core_fail  the whole worker core fails; every task on it deschedules
========== ============================================================

Onsets are either deterministic (``at_s``) or stochastic (``rate_per_s``
with ``count`` onsets drawn from exponential inter-arrivals on the
simulation's seeded ``faults`` stream).  Transient faults (``duration_s``)
self-heal; crashes and core failures are permanent until a recovery
policy intervenes.

``repro run --fault-plan`` hands a plan to every single-host Scenario
the experiment builds through the run context
(:class:`repro.experiments.common.RunContext`).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.faults.recovery import RECOVERY_POLICIES
from repro.sim.clock import SEC

#: The fault taxonomy (see the table above and docs/faults.md).
FAULT_KINDS = ("crash", "hang", "slowdown", "ring_stall", "core_fail")

#: Kinds for which self-healing makes no sense: a dead process or core
#: does not come back without a recovery action.
_PERMANENT_KINDS = ("crash", "core_fail")


def _check_number(where: str, name: str, value: Any) -> None:
    """Reject a non-number, NaN or infinity in field ``name``, including a
    value that only overflows once scaled to nanoseconds (``1e300``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: {name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(float(value) * SEC)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(
            f"{where}: {name} must be finite in seconds and in ns, "
            f"got {value!r}")


def _require_object(what: str, data: Any) -> None:
    if not isinstance(data, dict):
        raise ValueError(
            f"{what} must be a JSON object, got {type(data).__name__}")


@dataclass
class FaultSpec:
    """One fault: what breaks (``kind`` + ``target``) and when."""

    kind: str
    #: NF name, or the worker-core id (as ``"0"`` / ``0``) for core_fail.
    target: str
    #: Deterministic onset, seconds of simulated time.
    at_s: Optional[float] = None
    #: Stochastic onsets: exponential inter-arrivals at this rate ...
    rate_per_s: Optional[float] = None
    #: ... and how many onsets to draw.
    count: int = 1
    #: Transient faults self-heal after this long (hang/slowdown/stall).
    duration_s: Optional[float] = None
    #: Per-packet cost multiplier for ``slowdown``.
    factor: float = 4.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if isinstance(self.target, bool) or \
                not isinstance(self.target, (str, int)):
            raise ValueError(
                f"fault {self.kind}: target must be an NF name or a core "
                f"id, got {self.target!r}")
        self.target = str(self.target)
        where = f"fault {self.kind}@{self.target}"
        for name in ("at_s", "rate_per_s", "duration_s"):
            if getattr(self, name) is not None:
                _check_number(where, name, getattr(self, name))
        _check_number(where, "factor", self.factor)
        if isinstance(self.count, bool) or not isinstance(self.count, int):
            raise ValueError(
                f"{where}: count must be an integer, got {self.count!r}")
        if (self.at_s is None) == (self.rate_per_s is None):
            raise ValueError(
                f"fault {self.kind}@{self.target}: specify exactly one of "
                f"at_s (deterministic onset) or rate_per_s (stochastic)"
            )
        if self.at_s is not None and self.at_s < 0:
            raise ValueError(f"at_s must be >= 0, got {self.at_s}")
        if self.rate_per_s is not None:
            if self.rate_per_s <= 0:
                raise ValueError(
                    f"rate_per_s must be > 0, got {self.rate_per_s}")
            if not math.isfinite(SEC / self.rate_per_s):
                raise ValueError(
                    f"{where}: rate_per_s {self.rate_per_s!r} is so small "
                    f"that its mean inter-arrival overflows in ns")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.duration_s is not None:
            if self.duration_s <= 0:
                raise ValueError(
                    f"duration_s must be > 0, got {self.duration_s}")
            if self.kind in _PERMANENT_KINDS:
                raise ValueError(
                    f"{self.kind} faults cannot self-heal; drop duration_s "
                    f"and rely on a recovery policy"
                )
        if self.factor <= 0:
            raise ValueError(f"factor must be > 0, got {self.factor}")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form; None/default fields are pruned for stability."""
        out = asdict(self)
        for key in ("at_s", "rate_per_s", "duration_s"):
            if out[key] is None:
                del out[key]
        if out["count"] == 1:
            del out["count"]
        if self.kind != "slowdown":
            del out["factor"]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        _require_object("a fault spec", data)
        known = {"kind", "target", "at_s", "rate_per_s", "count",
                 "duration_s", "factor"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown FaultSpec field(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        missing = {"kind", "target"} - set(data)
        if missing:
            raise ValueError(
                f"FaultSpec is missing required field(s) {sorted(missing)}")
        return cls(**data)


@dataclass
class FaultPlan:
    """A chaos experiment's full failure script plus response knobs."""

    specs: List[FaultSpec] = field(default_factory=list)
    #: Recovery policy name (see repro.faults.recovery.RECOVERY_POLICIES).
    policy: str = "restart-warm"
    #: Watchdog staleness threshold: an NF with backlog but no drain
    #: progress for this long is flagged.
    detection_period_s: float = 0.002
    #: Time a restart takes (process spawn + ring re-attach) once a
    #: recovery policy decides to restart.
    restart_delay_s: float = 0.001

    def __post_init__(self) -> None:
        if not isinstance(self.policy, str) or \
                self.policy not in RECOVERY_POLICIES:
            raise ValueError(
                f"fault plan: unknown policy {self.policy!r}; expected one "
                f"of {sorted(RECOVERY_POLICIES)}")
        for name in ("detection_period_s", "restart_delay_s"):
            _check_number("fault plan", name, getattr(self, name))
        if self.detection_period_s <= 0:
            raise ValueError(
                f"detection_period_s must be > 0, got "
                f"{self.detection_period_s}"
            )
        if self.restart_delay_s < 0:
            raise ValueError(
                f"restart_delay_s must be >= 0, got {self.restart_delay_s}"
            )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "specs": [spec.to_dict() for spec in self.specs],
            "policy": self.policy,
            "detection_period_s": self.detection_period_s,
            "restart_delay_s": self.restart_delay_s,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        _require_object("a fault plan", data)
        known = {"specs", "policy", "detection_period_s", "restart_delay_s"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown FaultPlan field(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        specs = data.get("specs", [])
        if not isinstance(specs, list):
            raise ValueError(
                f"fault plan: specs must be a list, got "
                f"{type(specs).__name__}")
        specs = [FaultSpec.from_dict(s) for s in specs]
        return cls(
            specs=specs,
            policy=data.get("policy", "restart-warm"),
            detection_period_s=data.get("detection_period_s", 0.002),
            restart_delay_s=data.get("restart_delay_s", 0.001),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        """Load a plan from a ``.json`` or ``.yaml``/``.yml`` file.

        YAML needs PyYAML; when it is absent (the toolchain does not bake
        it in) the error tells the user to supply JSON instead of failing
        with a bare ImportError.
        """
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if path.endswith((".yaml", ".yml")):
            try:
                import yaml  # type: ignore[import-untyped]
            except ImportError as exc:  # pragma: no cover - env dependent
                raise RuntimeError(
                    f"cannot load {path}: PyYAML is not installed; "
                    f"provide the fault plan as JSON instead"
                ) from exc
            return cls.from_dict(yaml.safe_load(text))
        return cls.from_json(text)
