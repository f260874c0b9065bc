"""Result analysis helpers.

* :mod:`~repro.analysis.export` — serialise :class:`ScenarioResult` to
  JSON-compatible dicts and back, so experiment outputs can be archived
  and diffed across code versions.
* :mod:`~repro.analysis.sparkline` — compact ASCII rendering of time
  series for terminal reports (Figure 13's Gbps-over-time, 15a's shares).
"""

from repro.analysis.export import (
    load_result,
    load_result_dict,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.analysis.sparkline import sparkline, render_series

__all__ = [
    "result_to_dict",
    "result_from_dict",
    "save_result",
    "load_result",
    "load_result_dict",
    "sparkline",
    "render_series",
]
