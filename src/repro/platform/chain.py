"""Service chains.

A chain is an ordered sequence of NF instances a packet traverses
(RFC 7665).  Chains may share NF instances (Figure 8: NF1 and NF4 serve
both chains) and may be defined "at fine granularity (e.g., at the
flow-level) in order to minimize head of line blocking" (§3.3) — an
experiment simply creates one chain per flow over the same NF instances.

The chain also carries the per-chain counters the evaluation reports:
entry discards (backpressure early drops — *saved* work), in-chain queue
drops (*wasted* work, since upstream NFs already spent cycles), and
completions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.metrics.histogram import CycleHistogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.nf import NFProcess


class ServiceChain:
    """An ordered list of NF instances with throttle state and counters."""

    def __init__(self, name: str, nfs: Sequence["NFProcess"]):
        if not nfs:
            raise ValueError("a service chain needs at least one NF")
        self.name = name
        self.nfs: List["NFProcess"] = list(nfs)
        #: Backpressure throttle: when True the Rx thread discards this
        #: chain's packets at the system entry point (§3.3, Figure 5).
        self.throttled = False
        #: The NF whose congested queue triggered the throttle (for debugging
        #: and for clearing the throttle when that queue drains).
        self.throttle_cause: Optional["NFProcess"] = None
        # Counters
        self.completed = 0        # packets that exited the last NF
        #: Of ``completed``, the packets a cluster leg carried on to the
        #: next host (a hand-off, not a delivery).
        self.handed_off = 0
        self.completed_bytes = 0
        self.entry_discards = 0   # early drops at system entry (saved work)
        self.wasted_drops = 0     # drops after at least one NF processed
        #: End-to-end latency (ns) of completed packets, NIC-arrival to
        #: chain exit, carried by each segment's origin timestamp.
        self.latency_hist = CycleHistogram()

        # Successor map for O(1) next-hop routing on the Tx ferry path.
        # Membership is fixed at construction; first occurrence wins for
        # an NF appearing twice, matching ``list.index`` semantics.
        self._next: Dict["NFProcess", Optional["NFProcess"]] = {}
        last = len(self.nfs) - 1
        for position, nf in enumerate(self.nfs):
            nf.join_chain(self, position)
            if nf not in self._next:
                self._next[nf] = self.nfs[position + 1] if position < last else None

    def __len__(self) -> int:
        return len(self.nfs)

    def __iter__(self):
        return iter(self.nfs)

    def first(self) -> "NFProcess":
        return self.nfs[0]

    def last(self) -> "NFProcess":
        return self.nfs[-1]

    def position_of(self, nf: "NFProcess") -> int:
        """Index of ``nf`` in this chain (ValueError if absent)."""
        return self.nfs.index(nf)

    def next_nf(self, nf: "NFProcess") -> Optional["NFProcess"]:
        """The NF after ``nf``, or None when ``nf`` is the chain tail."""
        try:
            return self._next[nf]
        except KeyError:
            raise ValueError(f"{nf!r} is not in chain {self.name!r}") from None

    def upstream_of(self, nf: "NFProcess") -> List["NFProcess"]:
        """All NFs strictly before ``nf`` in this chain."""
        return self.nfs[: self.position_of(nf)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        path = "->".join(nf.name for nf in self.nfs)
        state = " THROTTLED" if self.throttled else ""
        return f"ServiceChain({self.name!r}: {path}{state})"
