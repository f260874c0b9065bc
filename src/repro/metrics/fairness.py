"""Jain's fairness index (paper §4.3.6, Figure 15b).

``J = (sum x_i)^2 / (n * sum x_i^2)`` — 1.0 when all allocations are equal,
``1/n`` when a single member receives everything.
"""

from __future__ import annotations

import sys
from typing import Sequence


def jain_index(values: Sequence[float]) -> float:
    """Return Jain's fairness index of ``values``.

    An empty sequence or an all-zero sequence has no meaningful fairness;
    by convention we return 1.0 (everyone equally got nothing).
    Negative allocations are rejected.
    """
    if not values:
        return 1.0
    if any(v < 0 for v in values):
        raise ValueError("allocations must be non-negative")
    total = float(sum(values))
    if total == 0.0:
        return 1.0
    sq = sum(float(v) * float(v) for v in values)
    if sq < sys.float_info.min:
        # Tiny allocations whose squares underflow into the subnormal range
        # lose precision (or vanish).  J is scale-invariant, so rescale by
        # the largest allocation and compute on values in [0, 1].
        top = float(max(values))
        scaled = [float(v) / top for v in values]
        total = sum(scaled)
        sq = sum(v * v for v in scaled)
    return total * total / (len(values) * sq)
