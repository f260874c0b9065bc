"""Backpressure causality attribution: *who caused this queueing?*

The backpressure controller (Figure 4) already tells us *that* a chain
was throttled; this tracer links every throttle episode to the **culprit
NF** whose congested Rx ring triggered it and charges the consequences
back to it:

* **Throttle-induced delay per flow class** — for every delivered
  segment, the exact overlap (integer ns) between the packet's sojourn
  interval ``[origin_ns, delivery_ns]`` and the chain's throttle
  episodes, attributed to each episode's culprit.  This answers "which
  NF's throttling added how much latency to which flow" — the view the
  SLO-aware scheduler work needs (*Scheduling Network Function Chains
  Under Sub-Millisecond Latency SLOs*).
* **Packets shed at entry** per culprit (the early discards the culprit's
  throttle caused, which saved upstream work but cost goodput).
* **Wasted drops** at each congested ring (work upstream NFs already
  spent that the full ring destroyed).
* **Relinquish stalls** — how long each upstream NF was evicted from the
  CPU by the relinquish flag, and how long it took the scheduler to
  re-dispatch it after release (the "resume delay").

Episodes per chain are sequential and non-overlapping by construction:
``chain.throttled`` is a single-cause boolean, so at most one episode is
open per chain at any time.  All bookkeeping is integer nanoseconds and
purely observational — simulation state, timing and RNG streams are
untouched, so digests are identical with the tracer on or off.
"""

from __future__ import annotations

#: Digest-safety contract marker, verified by ``repro check --deep``
#: (SIM603) against ``repro.check.registry.MARKED_MODULES``.
__digest_safety__ = "digest-invisible: backpressure attribution telemetry"

from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Tuple

#: Soft cap on retained episodes per chain.  Old *closed* episodes are
#: folded into aggregate counters once in-flight packets can no longer
#: overlap them; the cap only guards pathological runs.
_MAX_EPISODES_PER_CHAIN = 8192

#: Staged ``(origin, delivery, count)`` triples per (chain, flow) before
#: attribution is folded into ``induced`` (bounds staging memory).
_MAX_PENDING_DELIVERIES = 2048


class _ChainLog:
    """Closed throttle episodes of one chain as parallel arrays.

    ``on_delivery`` runs for every delivered segment, and a packet's
    sojourn can overlap dozens of episodes; the arrays support an
    O(log n) answer instead of a per-episode walk:

    * ``ends`` is sorted (episodes are sequential), so ``bisect`` finds
      the oldest episode a sojourn overlaps;
    * ``cum[i]`` is the running total of episode durations through ``i``,
      so a span of fully-covered episodes is charged with one subtraction;
    * ``run_start[i]`` is the index where the culprit run containing
      ``i`` begins — consecutive episodes almost always blame the same
      bottleneck NF, so per-culprit charging visits runs, not episodes.
    """

    __slots__ = ("starts", "ends", "culprits", "cum", "run_start")

    def __init__(self):
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.culprits: List[str] = []
        self.cum: List[int] = []
        self.run_start: List[int] = []


class CausalityTracer:
    """Accumulates backpressure cause → effect attribution."""

    def __init__(self):
        #: chain name -> closed-episode log (time-ordered).
        self._closed: Dict[str, _ChainLog] = {}
        #: chain name -> open episode as ``(start_ns, culprit)``
        #: (invariant: at most one; it is always the newest).
        self._open: Dict[str, Tuple[int, str]] = {}
        #: culprit NF -> number of throttle episodes it opened.
        self.episode_counts: Dict[str, int] = {}
        #: culprit NF -> total ns its episodes kept chains throttled.
        self.throttle_ns: Dict[str, int] = {}
        #: (flow id, culprit NF) -> packet-weighted induced delay (pkt·ns).
        self.induced: Dict[Tuple[str, str], int] = {}
        #: (flow id, culprit NF) -> packets shed at entry during episodes.
        self.shed: Dict[Tuple[str, str], int] = {}
        #: congested NF -> packets destroyed at its full ring (wasted work).
        self.wasted: Dict[str, int] = {}
        #: NF -> [stall count, total stalled ns] from the relinquish flag.
        self.relinquish: Dict[str, List[int]] = {}
        self._relinquish_since: Dict[str, int] = {}
        #: NF -> [resume count, total release->dispatch delay ns].
        self.resume: Dict[str, List[int]] = {}
        self._pending_resume: Dict[str, int] = {}
        # chain -> flow -> staged ``(origin_ns, delivery_ns, count)``
        # triples awaiting attribution (see on_delivery); private to the
        # tracer, drained at ``_MAX_PENDING_DELIVERIES`` per list.
        self._pending_deliv: Dict[str, Dict[str, List[Tuple[int, int,
                                                            int]]]] = {}
        #: Episodes folded away by the per-chain cap (reporting only).
        self.pruned_episodes = 0

    # ------------------------------------------------------------------
    # Backpressure-controller hooks
    # ------------------------------------------------------------------
    def on_throttle(self, culprit: str, chain_name: str, now_ns: int) -> None:
        """``chain_name`` entered packet-throttle because of ``culprit``."""
        if chain_name in self._open:
            return  # defensive: chain.throttled is single-cause
        self._open[chain_name] = (int(now_ns), culprit)
        self.episode_counts[culprit] = self.episode_counts.get(culprit, 0) + 1

    def on_clear(self, culprit: str, chain_name: str, now_ns: int) -> None:
        """``chain_name``'s throttle (caused by ``culprit``) was lifted."""
        ep = self._open.get(chain_name)
        if ep is None or ep[1] != culprit:
            return
        del self._open[chain_name]
        start_ns = ep[0]
        end_ns = int(now_ns)
        self.throttle_ns[culprit] = (
            self.throttle_ns.get(culprit, 0) + end_ns - start_ns)
        log = self._closed.get(chain_name)
        if log is None:
            log = self._closed[chain_name] = _ChainLog()
        n = len(log.ends)
        if n and log.culprits[-1] == culprit:
            log.run_start.append(log.run_start[-1])
        else:
            log.run_start.append(n)
        log.starts.append(start_ns)
        log.ends.append(end_ns)
        log.culprits.append(culprit)
        log.cum.append((log.cum[-1] if n else 0) + end_ns - start_ns)
        if n + 1 > _MAX_EPISODES_PER_CHAIN:
            # Staged deliveries may reference the episodes about to be
            # folded away; attribute them first.
            by_flow = self._pending_deliv.get(chain_name)
            if by_flow:
                self._drain_chain(chain_name, by_flow)
            drop = (n + 1) // 2
            self.pruned_episodes += drop
            base = log.cum[drop - 1]
            log.starts = log.starts[drop:]
            log.ends = log.ends[drop:]
            log.culprits = log.culprits[drop:]
            log.cum = [c - base for c in log.cum[drop:]]
            log.run_start = [r - drop if r > drop else 0
                             for r in log.run_start[drop:]]

    def on_relinquish(self, nf_name: str, on: bool, now_ns: int) -> None:
        """The relinquish flag flipped for an upstream NF."""
        if on:
            self._relinquish_since[nf_name] = int(now_ns)
            self._pending_resume.pop(nf_name, None)
            return
        since = self._relinquish_since.pop(nf_name, None)
        if since is None:
            return
        entry = self.relinquish.setdefault(nf_name, [0, 0])
        entry[0] += 1
        entry[1] += int(now_ns) - since
        # Release -> next dispatch gap, closed by on_dispatch().
        self._pending_resume[nf_name] = int(now_ns)

    # ------------------------------------------------------------------
    # Scheduler hook
    # ------------------------------------------------------------------
    def on_dispatch(self, task_name: str, now_ns: int) -> None:
        """A task was dispatched; closes a pending relinquish-resume gap."""
        pending = self._pending_resume
        if not pending:
            return
        released = pending.pop(task_name, None)
        if released is None:
            return
        entry = self.resume.setdefault(task_name, [0, 0])
        entry[0] += 1
        entry[1] += int(now_ns) - released

    # ------------------------------------------------------------------
    # Data-path hooks
    # ------------------------------------------------------------------
    def on_entry_discard(self, chain_name: str, flow_id: str,
                         count: int) -> None:
        """``count`` arrivals for a throttled chain were shed at entry."""
        ep = self._open.get(chain_name)
        culprit = ep[1] if ep is not None else "?"
        key = (flow_id, culprit)
        self.shed[key] = self.shed.get(key, 0) + count

    def on_wasted_drop(self, congested_nf: str, count: int) -> None:
        """``count`` already-processed packets died at a full ring."""
        self.wasted[congested_nf] = self.wasted.get(congested_nf, 0) + count

    def on_delivery(self, flow_id: str, chain_name: str, origin_ns: int,
                    now_ns: int, count: int) -> None:
        """Attribute throttle overlap of a delivered segment's sojourn.

        The hot path is one ``list.append``: attribution is deferred to
        the next drain (the staging limit, an episode prune or
        :meth:`summary`), which is bit-identical to charging now — a
        sojourn's overlap with the episode history clipped at its own
        delivery time is unaffected by episodes that open afterwards.
        """
        by_flow = self._pending_deliv.get(chain_name)
        if by_flow is None:
            by_flow = self._pending_deliv[chain_name] = {}
        lst = by_flow.get(flow_id)
        if lst is None:
            lst = by_flow[flow_id] = []
        lst.append((origin_ns, now_ns, count))
        if len(lst) >= _MAX_PENDING_DELIVERIES:
            self._drain_deliveries()

    def _drain_deliveries(self) -> None:
        """Fold all staged deliveries into :attr:`induced`."""
        for chain_name, by_flow in self._pending_deliv.items():
            self._drain_chain(chain_name, by_flow)

    def _drain_chain(self, chain_name: str,
                     by_flow: Dict[str, List[Tuple[int, int, int]]]) -> None:
        for flow_id, lst in by_flow.items():
            if lst:
                self._charge(chain_name, flow_id, lst)
                lst.clear()

    def _charge(self, chain_name: str, flow_id: str, triples) -> None:
        """Attribute each ``(origin, delivery, count)`` sojourn's overlap
        with the chain's throttle episodes — clipped at both ends, so the
        result is independent of when (and in what order) it runs."""
        open_ep = self._open.get(chain_name)
        open_start = open_culprit = None
        if open_ep is not None:
            open_start, open_culprit = open_ep
        log = self._closed.get(chain_name)
        if log is not None:
            starts = log.starts
            ends = log.ends
            cum = log.cum
            run_start = log.run_start
            culprits = log.culprits
            n = len(ends)
            last_end = ends[n - 1] if n else 0
        else:
            n = 0
            last_end = 0
        sums: Dict[str, int] = {}
        open_total = 0
        for origin_ns, now_ns, count in triples:
            if open_start is not None and open_start < now_ns:
                lo = open_start if open_start > origin_ns else origin_ns
                if now_ns > lo:
                    open_total += (now_ns - lo) * count
            if last_end <= origin_ns:
                continue
            i = bisect_right(ends, origin_ns)
            # Episodes starting at/after the delivery cannot overlap it;
            # the newest included one may still need clipping at
            # ``now_ns`` (only when charging lags behind the clock —
            # live drains always see ``now_ns`` past every closed end).
            if now_ns >= last_end:
                j0 = n
                end_clip = 0
            else:
                j0 = bisect_left(starts, now_ns)
                if j0 <= i:
                    continue
                end_clip = ends[j0 - 1] - now_ns
            j = j0
            while j > i:
                a = run_start[j - 1]
                if a < i:
                    a = i
                total = cum[j - 1] - (cum[a - 1] if a else 0)
                if a == i:
                    clip = origin_ns - starts[i]
                    if clip > 0:
                        total -= clip
                if j == j0 and end_clip > 0:
                    total -= end_clip
                if total > 0:
                    culprit = culprits[j - 1]
                    sums[culprit] = sums.get(culprit, 0) + total * count
                j = a
        if open_total:
            sums[open_culprit] = sums.get(open_culprit, 0) + open_total
        if sums:
            induced = self.induced
            for culprit, total in sums.items():
                key = (flow_id, culprit)
                induced[key] = induced.get(key, 0) + total

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def summary(self, now_ns: int) -> Dict[str, Any]:
        """JSON-safe attribution state; open episodes are measured to
        ``now_ns`` without being closed."""
        self._drain_deliveries()
        throttle_ns = dict(self.throttle_ns)
        open_by_culprit: Dict[str, int] = {}
        for chain_name, (start_ns, culprit) in sorted(self._open.items()):
            held = int(now_ns) - start_ns
            if held > 0:
                throttle_ns[culprit] = throttle_ns.get(culprit, 0) + held
            open_by_culprit[culprit] = open_by_culprit.get(culprit, 0) + 1
        culprits: Dict[str, Any] = {}
        for name in sorted(set(list(self.episode_counts) +
                               list(throttle_ns))):
            culprits[name] = {
                "episodes": self.episode_counts.get(name, 0),
                "open_episodes": open_by_culprit.get(name, 0),
                "throttle_ns": throttle_ns.get(name, 0),
            }
        return {
            "culprits": culprits,
            "induced_pkt_ns": {
                f"{flow}→{culprit}": ns
                for (flow, culprit), ns in sorted(self.induced.items())},
            "shed_packets": {
                f"{flow}→{culprit}": n
                for (flow, culprit), n in sorted(self.shed.items())},
            "wasted_drops": dict(sorted(self.wasted.items())),
            "relinquish": {
                name: {"stalls": entry[0], "stalled_ns": entry[1]}
                for name, entry in sorted(self.relinquish.items())},
            "resume": {
                name: {"resumes": entry[0], "delay_ns": entry[1]}
                for name, entry in sorted(self.resume.items())},
            "pruned_episodes": self.pruned_episodes,
        }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------
def attribution_rows(causality: Dict[str, Any]) -> List[list]:
    """Per-culprit rows ``[nf, episodes, throttle_ms, induced_pkt_ms,
    shed_pkts, wasted_drops]`` from a :meth:`CausalityTracer.summary`
    dict (empty list when there was no backpressure activity)."""
    culprits = causality.get("culprits", {}) if causality else {}
    induced = causality.get("induced_pkt_ns", {}) if causality else {}
    shed = causality.get("shed_packets", {}) if causality else {}
    wasted = causality.get("wasted_drops", {}) if causality else {}

    by_culprit_induced: Dict[str, int] = {}
    for key, ns in induced.items():
        culprit = key.rsplit("→", 1)[-1]
        by_culprit_induced[culprit] = by_culprit_induced.get(culprit, 0) + ns
    by_culprit_shed: Dict[str, int] = {}
    for key, n in shed.items():
        culprit = key.rsplit("→", 1)[-1]
        by_culprit_shed[culprit] = by_culprit_shed.get(culprit, 0) + n

    names: List[str] = sorted(set(list(culprits) + list(by_culprit_induced)
                                  + list(by_culprit_shed) + list(wasted)))
    rows: List[list] = []
    for name in names:
        info = culprits.get(name, {})
        rows.append([
            name,
            info.get("episodes", 0),
            round(info.get("throttle_ns", 0) / 1e6, 3),
            round(by_culprit_induced.get(name, 0) / 1e6, 3),
            by_culprit_shed.get(name, 0),
            wasted.get(name, 0),
        ])
    return rows


#: The column headers matching :func:`attribution_rows`.
ATTRIBUTION_HEADERS = ["culprit NF", "episodes", "throttle ms",
                       "induced pkt·ms", "shed pkts", "wasted drops"]
