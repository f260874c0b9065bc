"""Backpressure: watch list → packet throttle → clear throttle (Figure 4).

Detection and control are separated (§3.5): the Tx threads *detect*
overload for free from the enqueue return value and put the NF on the
watch list; the Wakeup thread's scan *decides*, moving an NF to the
throttle state only if its queue is still above the high watermark **and**
the head-of-queue wait exceeds the queuing-time threshold — hysteresis
that forgives short bursts that drain before the scan.

When an NF is throttled, every service chain that passes through it with
the NF downstream (position >= 1) is throttled **at the system entry
point** (Figure 5): the Rx thread discards those chains' arrivals before
any NF spends cycles on them.  Chains for which the congested NF is the
entry NF simply drop at its ring — no upstream work is wasted there.

Additionally, upstream NFs whose every chain is throttled are evicted via
the relinquish flag (§4.3.2 "the upstream NF will not execute till the
downstream NF gets to consume and process its receive buffers");
NFs shared with un-throttled chains keep running (Figure 8's NF1 must keep
serving chain 1 while chain 2 is throttled).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.core.nf import NFProcess
from repro.platform.config import PlatformConfig
from repro.sched.base import READY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.platform.chain import ServiceChain


class BackpressureState(enum.Enum):
    """Per-NF state in Figure 4's diagram."""

    OFF = "off"
    WATCH = "watch"          # above high watermark, awaiting the time gate
    THROTTLE = "throttle"    # chains through this NF are being shed at entry


# Bound once: member loads inside functions are slow on CPython 3.11 (see
# repro.sched.base, SIM502).
_OFF = BackpressureState.OFF
_WATCH = BackpressureState.WATCH
_THROTTLE = BackpressureState.THROTTLE


class BackpressureController:
    """Tracks congested NFs and throttles service chains at entry."""

    def __init__(self, config: Optional[PlatformConfig] = None):
        self.config = config if config is not None else PlatformConfig()
        self._state: Dict[str, BackpressureState] = {}
        # Insertion-ordered (dict-as-set): a plain ``set`` of NF objects
        # iterates in id-hash order, which varies run to run and made the
        # evaluate() scan — and thus event ordering and relinquish
        # decisions — nondeterministic under identical seeds.
        self._watch: Dict[str, NFProcess] = {}
        self._throttling: Dict[str, List["ServiceChain"]] = {}
        # Counters
        self.throttle_events = 0
        self.clear_events = 0
        #: Optional :class:`repro.obs.observer.Observer` told of every
        #: state transition with its culprit NF (wired by the manager).
        self.obs = None

    # ------------------------------------------------------------------
    # Detection path (called by Tx/Rx threads on watermark feedback)
    # ------------------------------------------------------------------
    def mark_overloaded(self, nf: NFProcess) -> None:
        """Enqueue feedback crossed the high watermark: add to watch list."""
        if self.state_of(nf) is _OFF:
            self._state[nf.name] = _WATCH
            self._watch[nf.name] = nf
            if self.obs is not None:
                self.obs.on_watch(nf)

    def state_of(self, nf: NFProcess) -> BackpressureState:
        return self._state.get(nf.name, _OFF)

    # ------------------------------------------------------------------
    # Control path (called by the Wakeup thread scan)
    # ------------------------------------------------------------------
    def evaluate(self, now_ns: int) -> None:
        """Advance the Figure 4 state machine for every watched NF."""
        if not self._watch:
            return
        for nf in list(self._watch.values()):
            state = self.state_of(nf)
            ring = nf.rx_ring
            if state is _WATCH:
                if ring.below_low:
                    self._state[nf.name] = _OFF
                    self._watch.pop(nf.name, None)
                elif (
                    ring.above_high
                    and ring.head_wait_ns(now_ns)
                    > self.config.queuing_time_threshold_ns
                ):
                    self._throttle(nf, now_ns)
            elif state is _THROTTLE:
                if ring.below_low:
                    self._clear(nf, now_ns)
                else:
                    # A chain may have been released by another NF clearing
                    # while this one is still congested: re-claim it.
                    self._reclaim(nf, now_ns)

    def _throttle(self, nf: NFProcess, now_ns: int) -> None:
        """Enter packet-throttle: shed this NF's downstream chains at entry."""
        self._state[nf.name] = _THROTTLE
        affected: List["ServiceChain"] = []
        selective = self.config.selective_chain_throttle
        for chain, position in nf.chain_positions.values():
            if position == 0:
                continue  # entry NF: drops at its own ring waste nothing
            if not chain.throttled:
                chain.throttled = True
                chain.throttle_cause = nf
                affected.append(chain)
        if not selective:
            # Chain-agnostic ablation: collateral throttling of every chain
            # sharing an NF with a congested chain — the coarse behaviour
            # Figure 5's per-chain selectivity ("packets for service chain
            # B are not affected at all") exists to avoid.
            for chain in list(affected):
                for member in chain.nfs:
                    for sibling in member.chains:
                        if not sibling.throttled:
                            sibling.throttled = True
                            sibling.throttle_cause = nf
                            affected.append(sibling)
        self._throttling[nf.name] = affected
        self.throttle_events += 1
        if self.obs is not None:
            self.obs.on_throttle(nf, affected, now_ns)
        if self.config.enable_relinquish:
            for chain in affected:
                # Collateral (chain-agnostic) chains may not contain nf;
                # relinquish only applies upstream of the congested NF.
                if chain.name not in nf.chain_positions:
                    continue
                for upstream in chain.upstream_of(nf):
                    self._update_relinquish(upstream, now_ns)

    def _reclaim(self, nf: NFProcess, now_ns: int) -> None:
        """Re-throttle downstream chains released by another NF's clear."""
        mine = self._throttling.setdefault(nf.name, [])
        for chain, position in nf.chain_positions.values():
            if position == 0 or chain.throttled:
                continue
            chain.throttled = True
            chain.throttle_cause = nf
            mine.append(chain)
            if self.obs is not None:
                self.obs.on_reclaim(nf, chain, now_ns)
            if self.config.enable_relinquish:
                for upstream in chain.upstream_of(nf):
                    self._update_relinquish(upstream, now_ns)

    def _clear(self, nf: NFProcess, now_ns: int) -> None:
        """Queue drained below the low watermark: lift the throttle."""
        self._state[nf.name] = _OFF
        self._watch.pop(nf.name, None)
        affected = self._throttling.pop(nf.name, [])
        if self.obs is not None:
            self.obs.on_clear(nf, affected, now_ns)
        for chain in affected:
            if chain.throttle_cause is nf:
                chain.throttled = False
                chain.throttle_cause = None
        self.clear_events += 1
        for chain in affected:
            if chain.name not in nf.chain_positions:
                continue
            for upstream in chain.upstream_of(nf):
                self._update_relinquish(upstream, now_ns)

    # ------------------------------------------------------------------
    # Relinquish-flag management
    # ------------------------------------------------------------------
    def _update_relinquish(self, nf: NFProcess, now_ns: int) -> None:
        """Set the relinquish flag iff *all* of the NF's chains are throttled.

        A flagged NF is evicted from the CPU (voluntary switch) and not
        woken until the flag clears.
        """
        should = bool(nf.chains) and all(c.throttled for c in nf.chains)
        if should == nf.relinquish:
            return
        nf.relinquish = should
        if self.obs is not None:
            self.obs.on_relinquish(nf, should, now_ns)
        core = nf.core
        if core is None:
            return
        if should:
            if core.current is nf:
                core.interrupt_current(voluntary=True)
            elif nf.state is READY:
                core.block_ready(nf)
        # Un-flagged NFs are picked up by the Wakeup thread's next scan.

    def throttled_chains(self) -> List["ServiceChain"]:
        """All chains currently being shed at entry (for reporting)."""
        out: List["ServiceChain"] = []
        for chains in self._throttling.values():
            out.extend(c for c in chains if c.throttled)
        return out
