"""Per-packet CPU cost models.

The paper's NFs span 50-10 000 cycles per packet, and §4.3.1 stresses NFs
whose *per-packet* cost varies (120/270/550 cycles drawn per packet).

Cost models expose a **buffered draw** discipline: ``peek_sum(n)`` reveals
the cost of the next ``n`` packets without consuming them, and
``consume_upto(budget, max_packets)`` consumes whole-packet costs in the
same order.  The core's run planner needs estimates that are exact for the
packets it later executes — pre-drawing into a buffer guarantees the cycles
foreseen equal the cycles charged.

For stochastic models the *timing* of every buffer refill and compaction
(``BufferedCost._ensure``) is digest-load-bearing, not just the draws:
where the ``np.cumsum`` chunks break and which prefix is subtracted at
compaction decide the low bits of every later prefix sum.  Fast paths
here (``WithOverhead.consume_upto``'s windowed search) therefore call
``_ensure`` with exactly the arguments, at exactly the points, of the
plain probe-per-step search they replace.

Every constructor rejects a non-finite or out-of-range parameter with a
``ValueError`` that names the field, so a bad topology spec fails when
it is built rather than mid-run.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.sim.rng import fallback_generator

#: Draws appended to the prefix-sum buffer at a time.  This quantum is
#: load-bearing for reproducibility: the float grouping of the running
#: cumulative sum depends on where the ``np.cumsum`` chunks break, so
#: changing it would shift digest-checked results by ULPs.  Widening the
#: *RNG* batch happens one layer down (see ``_RAW_REFILL``), which leaves
#: the cumulative-sum chunking untouched.
_REFILL = 1024
#: Values pulled from the underlying RNG per call.  numpy's vectorized
#: samplers consume the bit stream per-value, so one size-8192 draw yields
#: the same values as eight size-1024 draws — pinned by
#: ``tests/test_perf_equivalence.py``.
_RAW_REFILL = 8192
#: Compact the consumed prefix when it exceeds this many entries.
_COMPACT = 65536


def _finite(field: str, value, low: float = 0.0,
            inclusive: bool = False) -> float:
    """``value`` as a float, or a ValueError naming ``field``.

    Accepts finite values above ``low`` (or equal to it when
    ``inclusive``); NaN and infinities are always rejected.
    """
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{field} must be a number, got {value!r}") from None
    if not math.isfinite(v) or v < low or (v == low and not inclusive):
        bound = f">= {low:g}" if inclusive else f"> {low:g}"
        raise ValueError(f"{field} must be finite and {bound}, got {value!r}")
    return v


class CostModel:
    """Interface: cycles charged per packet, in packet order."""

    #: Long-run mean cycles per packet (used for reporting, not planning).
    mean_cycles: float = 0.0

    def peek_sum(self, n: int) -> float:
        """Total cycles of the next ``n`` packets (no consumption)."""
        raise NotImplementedError

    def consume_upto(self, budget_cycles: float, max_packets: int) -> Tuple[int, float]:
        """Consume whole packets while their cumulative cost fits the budget.

        Returns ``(packets, cycles_used)`` with ``packets <= max_packets``.
        """
        raise NotImplementedError

    def consume(self, n: int) -> float:
        """Unconditionally consume ``n`` packets; returns cycles used."""
        raise NotImplementedError


class FixedCost(CostModel):
    """Every packet costs exactly ``cycles`` — the common case, O(1)."""

    def __init__(self, cycles: float):
        self.cycles = _finite("cycles", cycles)
        self.mean_cycles = self.cycles

    def peek_sum(self, n: int) -> float:
        return n * self.cycles

    def consume_upto(self, budget_cycles: float, max_packets: int) -> Tuple[int, float]:
        if max_packets <= 0 or budget_cycles < self.cycles:
            return 0, 0.0
        k = min(max_packets, int(budget_cycles // self.cycles))
        return k, k * self.cycles

    def consume(self, n: int) -> float:
        return n * self.cycles

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FixedCost({self.cycles:g})"


class BufferedCost(CostModel):
    """Base for stochastic models: pre-draws costs into a prefix-sum buffer."""

    def __init__(self, rng: Optional[np.random.Generator] = None):
        self._rng = rng if rng is not None else fallback_generator()
        self._cum = np.zeros(1)  # _cum[i] = total cost of first i buffered pkts
        self._pos = 0            # packets already consumed from the buffer
        self._raw = np.zeros(0)  # draw-ahead pool of un-summed RNG values
        self._raw_pos = 0

    def _draw_block(self, n: int) -> np.ndarray:
        """Produce ``n`` per-packet costs from the RNG (subclass duty)."""
        raise NotImplementedError

    def _draw(self, n: int) -> np.ndarray:
        """Serve ``n`` costs from the draw-ahead pool, refilling in bulk.

        Amortises the per-call overhead of the numpy samplers (argument
        checking, method dispatch) across ``_RAW_REFILL`` values while the
        value *stream* stays identical to drawing ``n`` at a time.
        """
        raw = self._raw
        pos = self._raw_pos
        avail = len(raw) - pos
        if avail >= n:
            self._raw_pos = pos + n
            return raw[pos:pos + n]
        need = n - avail
        block = self._draw_block(need if need > _RAW_REFILL else _RAW_REFILL)
        if avail == 0:
            self._raw = block
            self._raw_pos = need
            return block[:need]
        self._raw = block
        self._raw_pos = need
        return np.concatenate([raw[pos:], block[:need]])

    def _ensure(self, n: int) -> None:
        """Grow the buffer until ``n`` un-consumed draws are available."""
        have = len(self._cum) - 1 - self._pos
        if have >= n:
            return
        need = max(n - have, _REFILL)
        fresh = self._draw(need)
        fresh = np.maximum(fresh, 1.0)  # a packet always costs >= 1 cycle
        ext = self._cum[-1] + np.cumsum(fresh)
        self._cum = np.concatenate([self._cum, ext])
        if self._pos > _COMPACT:
            base = self._cum[self._pos]
            self._cum = self._cum[self._pos:] - base
            self._pos = 0

    def peek_sum(self, n: int) -> float:
        if n <= 0:
            return 0.0
        self._ensure(n)
        return float(self._cum[self._pos + n] - self._cum[self._pos])

    def consume_upto(self, budget_cycles: float, max_packets: int) -> Tuple[int, float]:
        if max_packets <= 0 or budget_cycles <= 0:
            return 0, 0.0
        self._ensure(max_packets)
        base = self._cum[self._pos]
        # Largest k <= max_packets with cum[pos+k]-base <= budget.
        hi = self._pos + max_packets
        k = int(
            np.searchsorted(self._cum[self._pos + 1: hi + 1], base + budget_cycles,
                            side="right")
        )
        if k == 0:
            return 0, 0.0
        used = float(self._cum[self._pos + k] - base)
        self._pos += k
        return k, used

    def consume(self, n: int) -> float:
        if n <= 0:
            return 0.0
        self._ensure(n)
        used = float(self._cum[self._pos + n] - self._cum[self._pos])
        self._pos += n
        return used


class ChoiceCost(BufferedCost):
    """Each packet's cost drawn from a discrete set (§4.3.1: 120/270/550)."""

    def __init__(self, values, probabilities=None,
                 rng: Optional[np.random.Generator] = None):
        super().__init__(rng)
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 1 or len(self.values) == 0:
            raise ValueError(f"values must be a non-empty list, got {values!r}")
        if not np.all(np.isfinite(self.values) & (self.values > 0)):
            raise ValueError(f"values must be finite and > 0, got {values!r}")
        if probabilities is None:
            self.probabilities = np.full(len(self.values), 1.0 / len(self.values))
        else:
            self.probabilities = np.asarray(probabilities, dtype=float)
            if self.probabilities.shape != self.values.shape:
                raise ValueError("probabilities must match values")
            if not np.all(np.isfinite(self.probabilities)
                          & (self.probabilities >= 0)):
                raise ValueError(f"probabilities must be finite and >= 0, "
                                 f"got {probabilities!r}")
            total = self.probabilities.sum()
            if not np.isclose(total, 1.0):
                raise ValueError(f"probabilities must sum to 1, got {total}")
        self.mean_cycles = float(np.dot(self.values, self.probabilities))

    def _draw_block(self, n: int) -> np.ndarray:
        return self._rng.choice(self.values, size=n, p=self.probabilities)


class NormalCost(BufferedCost):
    """Gaussian per-packet cost, truncated at 1 cycle."""

    def __init__(self, mean: float, std: float,
                 rng: Optional[np.random.Generator] = None):
        super().__init__(rng)
        self.mean = _finite("mean", mean)
        self.std = _finite("std", std, inclusive=True)
        self.mean_cycles = self.mean

    def _draw_block(self, n: int) -> np.ndarray:
        return self._rng.normal(self.mean, self.std, size=n)


class UniformCost(BufferedCost):
    """Uniform per-packet cost in [low, high]."""

    def __init__(self, low: float, high: float,
                 rng: Optional[np.random.Generator] = None):
        super().__init__(rng)
        self.low = _finite("low", low)
        self.high = _finite("high", high, self.low, inclusive=True)
        self.mean_cycles = 0.5 * (self.low + self.high)

    def _draw_block(self, n: int) -> np.ndarray:
        return self._rng.uniform(self.low, self.high, size=n)


class ExponentialCost(BufferedCost):
    """Heavy-tailed cost — e.g. an NF where some packets trigger an
    expensive DNS lookup while most are a cheap header match (§1)."""

    def __init__(self, mean: float, rng: Optional[np.random.Generator] = None):
        super().__init__(rng)
        self.mean = _finite("mean", mean)
        self.mean_cycles = self.mean

    def _draw_block(self, n: int) -> np.ndarray:
        return self._rng.exponential(self.mean, size=n)


class ScaledCost(CostModel):
    """Multiplies an inner model's per-packet cost by a constant factor.

    The fault injector wraps an NF's cost model with this to impose a
    *slowdown* (a leaking NF, a cache-thrashing co-tenant, a thermally
    throttled core); unwrapping restores the original behaviour exactly
    because the inner model's buffered draws are untouched.
    """

    def __init__(self, inner: CostModel, factor: float):
        self.inner = inner
        self.factor = _finite("factor", factor)
        self.mean_cycles = inner.mean_cycles * self.factor
        # Cached fast path for the common fixed-cost inner model: the
        # whole consume_upto collapses to arithmetic, with the float
        # operations in the exact order of the delegated path
        # (budget/factor, floor-divide by cycles, k*cycles, then *factor).
        self._fixed_cycles = (
            inner.cycles if type(inner) is FixedCost else None
        )

    def peek_sum(self, n: int) -> float:
        if n <= 0:
            return 0.0
        c = self._fixed_cycles
        if c is not None:
            return (n * c) * self.factor
        return self.inner.peek_sum(n) * self.factor

    def consume_upto(self, budget_cycles: float, max_packets: int) -> Tuple[int, float]:
        if max_packets <= 0 or budget_cycles <= 0:
            return 0, 0.0
        c = self._fixed_cycles
        if c is not None:
            b = budget_cycles / self.factor
            if b < c:
                return 0, 0.0
            k = int(b // c)
            if k > max_packets:
                k = max_packets
            return k, (k * c) * self.factor
        k, used = self.inner.consume_upto(budget_cycles / self.factor,
                                          max_packets)
        return k, used * self.factor

    def consume(self, n: int) -> float:
        if n <= 0:
            return 0.0
        return self.inner.consume(n) * self.factor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScaledCost({self.inner!r}, x{self.factor:g})"


class WithOverhead(CostModel):
    """Adds a fixed per-packet framework overhead to an inner model.

    Real OpenNetVM NFs pay ring dequeue/enqueue, descriptor handling and
    libnf bookkeeping on top of the NF's own packet-handler cost; the
    platform wraps each NF's cost model with this when
    ``PlatformConfig.nf_overhead_cycles`` is non-zero.
    """

    def __init__(self, inner: CostModel, overhead_cycles: float):
        self.inner = inner
        self.overhead = _finite("overhead_cycles", overhead_cycles,
                                inclusive=True)
        self.mean_cycles = inner.mean_cycles + self.overhead
        self._buffered: Optional[BufferedCost] = (
            inner if isinstance(inner, BufferedCost) else None
        )

    def peek_sum(self, n: int) -> float:
        if n <= 0:
            return 0.0
        return self.inner.peek_sum(n) + n * self.overhead

    def consume_upto(self, budget_cycles: float, max_packets: int) -> Tuple[int, float]:
        if max_packets <= 0 or budget_cycles <= 0:
            return 0, 0.0
        # Largest k with inner.peek_sum(k) + k*overhead <= budget: binary
        # search on the monotone total.
        inner = self._buffered
        if inner is not None:
            # Same search over one list read of the un-consumed prefix
            # sums instead of a peek_sum call chain per probe.  Each probe
            # is peek_sum's own float expression, and a probe past the
            # buffered window calls _ensure(mid) exactly where peek_sum
            # would, so refill/compaction timing (hence every later
            # prefix sum) is unchanged; the window is re-read after it.
            overhead = self.overhead
            pos = inner._pos
            w = inner._cum[pos:pos + max_packets + 1].tolist()
            top = len(w) - 1
            lo, hi = 0, max_packets
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if mid > top:
                    inner._ensure(mid)
                    pos = inner._pos
                    w = inner._cum[pos:pos + max_packets + 1].tolist()
                    top = len(w) - 1
                if (w[mid] - w[0]) + mid * overhead <= budget_cycles:
                    lo = mid
                else:
                    hi = mid - 1
            if lo == 0:
                return 0, 0.0
            inner._pos = pos + lo
            return lo, (w[lo] - w[0]) + lo * overhead
        lo, hi = 0, max_packets
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.peek_sum(mid) <= budget_cycles:
                lo = mid
            else:
                hi = mid - 1
        if lo == 0:
            return 0, 0.0
        used = self.inner.consume(lo) + lo * self.overhead
        return lo, used

    def consume(self, n: int) -> float:
        if n <= 0:
            return 0.0
        return self.inner.consume(n) + n * self.overhead

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WithOverhead({self.inner!r}, +{self.overhead:g})"
