"""Result analysis helpers.

* :mod:`~repro.analysis.export` — serialise :class:`ScenarioResult` to
  JSON-compatible dicts and back, so experiment outputs can be archived
  and diffed across code versions.
"""

from repro.analysis.export import (
    load_result,
    load_result_dict,
    result_from_dict,
    result_to_dict,
    save_result,
)

__all__ = [
    "result_to_dict",
    "result_from_dict",
    "save_result",
    "load_result",
    "load_result_dict",
]
