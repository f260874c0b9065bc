"""Campaign task model and enumeration.

A :class:`TaskSpec` is one unit of work a worker process can execute
independently: import ``module``, call ``fn(**kwargs)``, serialise the
result.  Experiments contribute tasks in one of two ways:

* **sweep experiments** (fig07, fig09, fig10, fig11, fig12, fig16, tab05,
  slo_battery, cluster_scaling, chaos_recovery) expose
  ``campaign_cases(duration_s)`` — every cell of their configuration grid
  becomes its own ``run_case`` task, so a single experiment's sweep fans
  out across workers;
* every other experiment contributes a single task running its ``main``.

Seeding: each case carries its RNG seed explicitly in ``kwargs`` (the
same seed the module's own serial ``main`` runs it with), so a task's
result is a pure function of its spec.  A non-zero campaign seed derives a new
per-task seed from ``(experiment, case label, campaign seed)`` via CRC-32
— deterministic, stable across processes and Python versions, and
independent for every task.
"""

from __future__ import annotations

import importlib
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class TaskSpec:
    """A picklable description of one unit of campaign work."""

    experiment: str            # experiment id ("fig11")
    label: str                 # stable case label ("Low-Med-High|NORMAL|Default")
    module: str                # import path of the experiment module
    fn: str                    # module-level callable to invoke
    kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Grid key for reassembly by ``render_cases`` (None for main tasks).
    key: Any = None
    #: Simulated seconds this task covers, when known.
    sim_seconds: Optional[float] = None

    @property
    def task_id(self) -> str:
        return f"{self.experiment}:{self.label}"

    def to_wire(self) -> Dict[str, Any]:
        """The portable subset a worker needs (no grid key)."""
        return {
            "experiment": self.experiment,
            "label": self.label,
            "module": self.module,
            "fn": self.fn,
            "kwargs": self.kwargs,
        }


def derive_task_seed(campaign_seed: int, experiment: str, label: str,
                     base_seed: int) -> int:
    """Per-task seed: the module's own seed when ``campaign_seed`` is 0
    (bit-identical to the serial experiment), a stable mix otherwise."""
    if campaign_seed == 0:
        return base_seed
    tag = zlib.crc32(f"{experiment}|{label}|{campaign_seed}".encode("utf-8"))
    return (base_seed ^ tag) & 0x7FFFFFFF


def enumerate_tasks(experiment: str, module_path: str,
                    duration_s: Optional[float] = None,
                    campaign_seed: int = 0) -> List[TaskSpec]:
    """All tasks for one experiment, in canonical (enumeration) order."""
    module = importlib.import_module(module_path)
    if hasattr(module, "campaign_cases") and hasattr(module, "render_cases"):
        cases = (module.campaign_cases(duration_s=duration_s)
                 if duration_s is not None else module.campaign_cases())
        specs: List[TaskSpec] = []
        for case in cases:
            kwargs = dict(case.kwargs)
            if "seed" in kwargs:
                kwargs["seed"] = derive_task_seed(
                    campaign_seed, experiment, case.label, kwargs["seed"])
            specs.append(TaskSpec(
                experiment=experiment,
                label=case.label,
                module=module_path,
                fn="run_case",
                kwargs=kwargs,
                key=case.key,
                sim_seconds=kwargs.get("duration_s"),
            ))
        return specs
    kwargs = {"duration_s": duration_s} if duration_s is not None else {}
    return [TaskSpec(experiment=experiment, label="main", module=module_path,
                     fn="main", kwargs=kwargs)]
