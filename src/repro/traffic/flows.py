"""Flow specifications for the traffic generator."""

from __future__ import annotations

import math
from typing import Any, List, Optional

from repro.platform.packet import Flow
from repro.traffic.arrivals import ArrivalModel, make_arrival_model


class FlowSpec:
    """How one flow is offered to the NIC.

    ``rate_pps`` is read every generator tick, so a congestion-control
    model (or a scripted experiment such as Figure 15a's cost step) can
    change it mid-run.  ``start_ns``/``stop_ns`` bound the active interval
    (Figure 13 turns its UDP flows on at t=15 s and off at t=40 s).

    ``pattern`` is ``"cbr"``, ``"poisson"``, or any name registered in
    :data:`repro.traffic.arrivals.ARRIVAL_MODELS` (``"pareto_onoff"``,
    ``"mmpp"``, ``"flash_crowd"``) — constructed with ``model_params``.
    A pre-built :class:`~repro.traffic.arrivals.ArrivalModel` instance
    can be passed via ``model`` instead.
    """

    def __init__(
        self,
        flow: Flow,
        rate_pps: float,
        start_ns: int = 0,
        stop_ns: Optional[int] = None,
        pattern: str = "cbr",
        model: Optional[ArrivalModel] = None,
        model_params: Optional[dict] = None,
    ):
        if not (math.isfinite(rate_pps) and rate_pps >= 0):
            raise ValueError(
                f"rate_pps must be finite and non-negative, got {rate_pps!r}")
        if model is not None:
            if model_params:
                raise ValueError(
                    "model_params only applies when the model is built "
                    "from a pattern name")
            pattern = model.name
        elif pattern not in ("cbr", "poisson"):
            # Raises for genuinely unknown patterns.
            model = make_arrival_model(pattern, **(model_params or {}))
        elif model_params:
            raise ValueError(
                f"pattern {pattern!r} takes no model_params")
        self.flow = flow
        self.rate_pps = float(rate_pps)
        self.start_ns = int(start_ns)
        self.stop_ns = None if stop_ns is None else int(stop_ns)
        self.pattern = pattern
        self.model = model
        self._carry = 0.0  # fractional packets carried between ticks
        # Precomputed per-tick counts (see next_count).  The batch is a
        # pure function of (_carry, rate, dt) for CBR, or a block of RNG
        # draws for Poisson/model specs; _batch_rate detects mid-run rate
        # changes.
        self._batch: Optional[List[int]] = None
        self._batch_pos = 0
        self._batch_rate = -1.0
        self._batch_carry0 = 0.0   # CBR carry at the batch's first tick
        self._batch_state = None   # RNG state before the batch's draws
        self._model_state: Any = None  # model snapshot at the batch start

    def active(self, now_ns: int) -> bool:
        if now_ns < self.start_ns:
            return False
        if self.stop_ns is not None and now_ns >= self.stop_ns:
            return False
        return True

    #: Ticks of arrivals precomputed per batch refill.
    _BATCH_TICKS = 256

    def packets_this_tick(self, dt_ns: int, rng=None) -> int:
        """Packets to emit for a tick of ``dt_ns`` (CBR keeps a fractional
        carry so long-run rates are exact; Poisson draws from the RNG)."""
        if self.model is not None:
            if rng is None:
                raise ValueError(f"{self.pattern} arrivals need an RNG")
            return self.model.draw(self.rate_pps, dt_ns, 1, rng)[0]
        expected = self.rate_pps * dt_ns / 1e9
        if self.pattern == "poisson":
            if rng is None:
                raise ValueError("poisson arrivals need an RNG")
            return int(rng.poisson(expected))
        self._carry += expected
        n = int(self._carry)
        self._carry -= n
        return n

    def next_count(self, dt_ns: int, rng=None, rng_batch: bool = False) -> int:
        """Batched equivalent of :meth:`packets_this_tick`.

        Serves per-tick arrival counts from a precomputed block, refilling
        ``_BATCH_TICKS`` at a time.  The emitted count sequence is
        bit-identical to calling :meth:`packets_this_tick` every tick:

        * CBR counts come from the exact iterative carry recurrence (the
          float additions happen in the same order, just ahead of time);
          a mid-run ``rate_pps`` change replays the recurrence up to the
          consumed position to recover the true carry before rebatching.
        * Poisson counts are one vectorized ``rng.poisson(lam, size=B)``
          call — numpy consumes the bit stream per-value, so the draws
          match ``B`` scalar calls.  Only enabled when the caller
          guarantees this spec is the *only* consumer of ``rng``
          (``rng_batch=True``); a rate change rewinds the generator to the
          batch start and re-draws exactly the consumed prefix so the
          stream position stays where scalar draws would have left it.
        """
        batch = self._batch
        pos = self._batch_pos
        if (
            batch is None
            or pos >= len(batch)
            or self.rate_pps != self._batch_rate
        ):
            return self._refill(dt_ns, rng, rng_batch)
        self._batch_pos = pos + 1
        return batch[pos]

    def _refill(self, dt_ns: int, rng, rng_batch: bool) -> int:
        if self.model is not None:
            return self._refill_model(dt_ns, rng, rng_batch)
        pos = self._batch_pos
        stale = self._batch is not None and pos < len(self._batch)
        if self.pattern == "cbr":
            if stale:
                # Rate changed mid-batch: recover the carry at `pos` by
                # replaying the old recurrence (exact — same float ops).
                c = self._batch_carry0
                e = self._batch_rate * dt_ns / 1e9
                for _ in range(pos):
                    c += e
                    c -= int(c)
                self._carry = c
            expected = self.rate_pps * dt_ns / 1e9
            c = self._carry
            self._batch_carry0 = c
            counts = []
            append = counts.append
            for _ in range(self._BATCH_TICKS):
                c += expected
                n = int(c)
                c -= n
                append(n)
            self._carry = c
        else:
            if rng is None:
                raise ValueError("poisson arrivals need an RNG")
            if not rng_batch:
                # Shared RNG: batching would interleave the stream
                # differently than scalar draws; stay scalar.
                self._batch = None
                self._batch_rate = self.rate_pps
                return int(rng.poisson(self.rate_pps * dt_ns / 1e9))
            if stale:
                # Rewind to the batch start and burn exactly the draws a
                # scalar caller would have made, so the stream position
                # (and every future draw) matches the unbatched run.
                rng.bit_generator.state = self._batch_state
                old_lam = self._batch_rate * dt_ns / 1e9
                if pos:
                    rng.poisson(old_lam, size=pos)
            self._batch_state = rng.bit_generator.state
            lam = self.rate_pps * dt_ns / 1e9
            counts = [int(v) for v in
                      rng.poisson(lam, size=self._BATCH_TICKS)]
        self._batch = counts
        self._batch_rate = self.rate_pps
        self._batch_pos = 1
        return counts[0]

    def _refill_model(self, dt_ns: int, rng, rng_batch: bool) -> int:
        """Batch refill for :class:`~repro.traffic.arrivals.ArrivalModel`
        specs — the Poisson rewind protocol extended with the model's own
        state: on a stale batch both the RNG *and* the model rewind to
        the batch start, then replay exactly the consumed prefix at the
        old rate, so the emitted stream (and every future RNG draw)
        matches per-tick scalar draws bit for bit."""
        if rng is None:
            raise ValueError(f"{self.pattern} arrivals need an RNG")
        model = self.model
        if not rng_batch:
            # Shared RNG: batching would interleave the stream
            # differently than scalar draws; stay scalar.
            self._batch = None
            self._batch_rate = self.rate_pps
            return model.draw(self.rate_pps, dt_ns, 1, rng)[0]
        pos = self._batch_pos
        stale = self._batch is not None and pos < len(self._batch)
        if stale:
            rng.bit_generator.state = self._batch_state
            model.restore(self._model_state)
            if pos:
                model.draw(self._batch_rate, dt_ns, pos, rng)
        self._batch_state = rng.bit_generator.state
        self._model_state = model.snapshot()
        counts = model.draw(self.rate_pps, dt_ns, self._BATCH_TICKS, rng)
        self._batch = counts
        self._batch_rate = self.rate_pps
        self._batch_pos = 1
        return counts[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlowSpec({self.flow.flow_id!r}, {self.rate_pps:g}pps, "
            f"{self.pattern})"
        )
