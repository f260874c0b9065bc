"""Exact per-flow / per-chain SLO latency telemetry.

A sampled trace is enough to localise *where* time goes but not to read
tail percentiles: a p99.9 over sampled packets is a p99.9 of the sample,
not of the traffic.  The :class:`FlowLatencyTracker` records **every
delivered packet** into log-bucketed
:class:`~repro.metrics.histogram.CycleHistogram` instances — O(1) memory
per flow/chain/hop, no sampling — so fig07/fig09 runs can report true
p50/p95/p99/p99.9 sojourn latency per flow class plus an exact per-hop
wait-vs-service decomposition (the per-hop latency view *Benchmarking
NFV Software Dataplanes* shows is what localises dataplane bottlenecks;
``ObsSession`` prints it as the "per-hop latency breakdown" table).

Recording has one public method per event, each reached from the data
path through the platform's :class:`~repro.obs.observer.Observer` (one
``is not None`` branch per site when off):

* :meth:`FlowLatencyTracker.record_delivery`, from ``TxThread._route``
  (``Observer.on_delivery``) — chain completion: end-to-end sojourn (NIC
  arrival to chain exit) per flow and per chain, weighted by segment
  packet count, so the histograms cover 100% of delivered traffic.
* :meth:`FlowLatencyTracker.record_hop`, from every NF grant
  (``Observer.on_hop``; ``CallbackNF`` too) — per hop: Rx-ring queue wait
  and modelled per-packet service time of every processed packet.  There
  is no hop for the NIC Rx ring or the NF Tx rings; those waits stay
  inside the end-to-end sojourn.

Both stage into dicts private to the tracker, bounded by a private
limit and folded into the histograms on every read
(:meth:`~FlowLatencyTracker.chain_p99_us`,
:meth:`~FlowLatencyTracker.to_dict`).

Everything the tracker accumulates is observational — it never touches
simulation state, timing or RNG streams, so results (and campaign
digests) are bit-identical with the tracker on or off.  The exported
form is digest-invisible, like ``ScenarioResult.loop_stats``.
"""

from __future__ import annotations

#: Digest-safety contract marker, verified by ``repro check --deep``
#: (SIM603) against ``repro.check.registry.MARKED_MODULES``.
__digest_safety__ = "digest-invisible: per-flow sojourn telemetry"

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.metrics.histogram import CycleHistogram

#: The SLO percentiles every summary reports.
SLO_PERCENTILES: Tuple[float, ...] = (50.0, 95.0, 99.0, 99.9)

#: Finer buckets than the default 4/octave: at 8 bins per octave the
#: relative bucket width is ~9%, tight enough for tail-percentile reads.
_BINS_PER_OCTAVE = 8


def _new_hist() -> CycleHistogram:
    return CycleHistogram(bins_per_octave=_BINS_PER_OCTAVE)


def _drain(hist: CycleHistogram, pending: Dict[float, int]) -> None:
    if pending:
        add = hist.add
        for value in sorted(pending):
            add(value, weight=pending[value])
        pending.clear()


class FlowLatencyTracker:
    """Exact latency histograms per flow, per chain, and per hop."""

    #: Distinct flows tracked individually before spilling into the
    #: overflow class (guards memory under a million-flow workload;
    #: fig07/fig09 use 1-2 flows).
    OVERFLOW = "_other"

    def __init__(self, max_flows: int = 256):
        self.max_flows = int(max_flows)
        self.flows: Dict[str, CycleHistogram] = {}
        self.chains: Dict[str, CycleHistogram] = {}
        #: hop name -> (wait histogram, service histogram), ns.
        self.hops: Dict[str, Tuple[CycleHistogram, CycleHistogram]] = {}
        self._hop_order: List[str] = []
        # Staging, private to the tracker: value -> packet weight, folded
        # into the histograms on export.  Simulated workloads emit long
        # runs of repeated values (per-NF service time is constant, queue
        # waits quantise to the service grid), so a dict update here
        # replaces a log-bucket insertion per sample.  ``_PENDING_LIMIT``
        # bounds each staging dict, keeping memory O(1).  Deliveries stage
        # once per ``(flow, chain)`` pair and fold into both histograms.
        self._pending_deliv: Dict[Tuple[str, str], Dict[float, int]] = {}
        self._pending_hops: Dict[
            str, Tuple[Dict[float, int], Dict[float, int]]] = {}

    _PENDING_LIMIT = 4096

    # ------------------------------------------------------------------
    # Recording (hot path — keep allocation-free after warm-up)
    # ------------------------------------------------------------------
    def record_delivery(self, flow_id: str, chain_name: str,
                        latency_ns: int, count: int) -> None:
        """A segment of ``count`` packets completed its chain after
        ``latency_ns`` of sojourn (NIC arrival to chain exit)."""
        pend = self._pending_deliv.get((flow_id, chain_name))
        if pend is None:
            pend = self._delivery_pending(flow_id, chain_name)
        if latency_ns in pend:
            pend[latency_ns] += count
        else:
            pend[latency_ns] = count
            if len(pend) >= self._PENDING_LIMIT:
                self._flush()

    def record_hop(self, hop: str, segs: Iterable[Any], n: int, now_ns: int,
                   service_ns: float) -> None:
        """One grant of ``hop`` cleared the first ``n`` packets of ``segs``
        at ``now_ns``, each taking ``service_ns`` of modelled service.

        Each packet's queue wait is ``now_ns - seg.enqueue_ns`` (clamped
        at 0), so the caller records before a ring adopts the segments
        and restamps them.  Every packet of a segment shares one wait;
        the whole grant is staged before the staging limit is checked.
        """
        pend = self._pending_hops.get(hop)
        if pend is None:
            self.hops[hop] = (_new_hist(), _new_hist())
            self._hop_order.append(hop)
            pend = self._pending_hops[hop] = ({}, {})
        waits, services = pend
        left = n
        for seg in segs:
            count = seg.count
            if count > left:
                count = left
            wait = now_ns - seg.enqueue_ns
            if wait < 0:
                wait = 0
            if wait in waits:
                waits[wait] += count
            else:
                waits[wait] = count
            left -= count
            if not left:
                break
        svc = service_ns if service_ns > 0 else 0.0
        services[svc] = services.get(svc, 0) + n
        limit = self._PENDING_LIMIT
        if len(waits) >= limit or len(services) >= limit:
            pair = self.hops[hop]
            _drain(pair[0], waits)
            _drain(pair[1], services)

    def _delivery_pending(self, flow_id: str,
                          chain_name: str) -> Dict[float, int]:
        """The ``(flow, chain)`` sojourn staging dict, creating the flow
        and chain histograms (and resolving flow overflow) on first use.
        Staged weights fold into *both* histograms at flush."""
        flows = self.flows
        if flow_id not in flows and len(flows) >= self.max_flows:
            flow_id = self.OVERFLOW
        key = (flow_id, chain_name)
        pend = self._pending_deliv.get(key)
        if pend is None:
            if flow_id not in flows:
                flows[flow_id] = _new_hist()
            if chain_name not in self.chains:
                self.chains[chain_name] = _new_hist()
            pend = self._pending_deliv[key] = {}
        return pend

    def _flush(self) -> None:
        """Fold all staged samples into the histograms (sorted by value,
        so float ``total`` accumulation is deterministic)."""
        for (fid, cname), pend in self._pending_deliv.items():
            if pend:
                flow_add = self.flows[fid].add
                chain_add = self.chains[cname].add
                for value in sorted(pend):
                    weight = pend[value]
                    flow_add(value, weight=weight)
                    chain_add(value, weight=weight)
                pend.clear()
        for name, (wp, sp) in self._pending_hops.items():
            pair = self.hops[name]
            _drain(pair[0], wp)
            _drain(pair[1], sp)

    def chain_p99_us(self, chain_name: str) -> Optional[float]:
        """Live p99 sojourn (µs) of a chain; None before its first delivery."""
        hist = self.chains.get(chain_name)
        if hist is None:
            return None
        self._flush()
        return hist.percentile(99.0) / 1e3

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Raw mergeable form: canonical histogram dicts, sorted keys."""
        self._flush()
        return {
            "flows": {fid: h.to_dict()
                      for fid, h in sorted(self.flows.items())},
            "chains": {name: h.to_dict()
                       for name, h in sorted(self.chains.items())},
            "hops": {name: {"wait": w.to_dict(), "service": s.to_dict()}
                     for name, (w, s) in sorted(self.hops.items())},
            "hop_order": list(self._hop_order),
        }

    def summary(self) -> Dict[str, Any]:
        """Percentile summary (µs) for streaming snapshots and tables."""
        return summarize(self.to_dict())

    def __len__(self) -> int:
        return len(self.flows)


# ---------------------------------------------------------------------------
# Dict-level helpers (operate on the JSON-safe form so the campaign
# runner and the stream differ never need live tracker objects)
# ---------------------------------------------------------------------------
def percentile_row(hist_dict: Dict[str, Any]) -> Dict[str, float]:
    """p50/p95/p99/p99.9 (µs) + count/mean/max from one histogram dict."""
    hist = CycleHistogram.from_dict(hist_dict)
    row: Dict[str, float] = {"count": hist.count}
    for p in SLO_PERCENTILES:
        key = f"p{p:g}".replace(".", "_")
        row[f"{key}_us"] = round(hist.percentile(p) / 1e3, 3)
    row["mean_us"] = round(hist.mean / 1e3, 3)
    row["max_us"] = round((hist.max or 0.0) / 1e3, 3)
    return row


def summarize(latency_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Percentile summaries for every flow/chain/hop in a raw dict."""
    if not latency_dict:
        return {}
    out: Dict[str, Any] = {
        "flows": {fid: percentile_row(h)
                  for fid, h in sorted(latency_dict.get("flows", {}).items())},
        "chains": {name: percentile_row(h)
                   for name, h in
                   sorted(latency_dict.get("chains", {}).items())},
    }
    hops: Dict[str, Any] = {}
    for name, pair in sorted(latency_dict.get("hops", {}).items()):
        wait = percentile_row(pair["wait"])
        service = percentile_row(pair["service"])
        hops[name] = {
            "count": wait["count"],
            "wait_p50_us": wait["p50_us"],
            "wait_p99_us": wait["p99_us"],
            "service_p50_us": service["p50_us"],
            "service_p99_us": service["p99_us"],
        }
    out["hops"] = hops
    out["hop_order"] = list(latency_dict.get("hop_order", []))
    return out


def merge_latency_dicts(dicts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Left-fold raw latency dicts (in the given order) into one.

    The campaign runner calls this with per-case dicts in task
    enumeration order, so the merged telemetry — like the campaign
    digest — is invariant to worker count and completion order.
    """
    merged_flows: Dict[str, CycleHistogram] = {}
    merged_chains: Dict[str, CycleHistogram] = {}
    merged_hops: Dict[str, Tuple[CycleHistogram, CycleHistogram]] = {}
    hop_order: List[str] = []
    for d in dicts:
        if not d:
            continue
        for fid, h in sorted(d.get("flows", {}).items()):
            hist = CycleHistogram.from_dict(h)
            if fid in merged_flows:
                merged_flows[fid].merge(hist)
            else:
                merged_flows[fid] = hist
        for name, h in sorted(d.get("chains", {}).items()):
            hist = CycleHistogram.from_dict(h)
            if name in merged_chains:
                merged_chains[name].merge(hist)
            else:
                merged_chains[name] = hist
        for name, pair in sorted(d.get("hops", {}).items()):
            wait = CycleHistogram.from_dict(pair["wait"])
            service = CycleHistogram.from_dict(pair["service"])
            if name in merged_hops:
                merged_hops[name][0].merge(wait)
                merged_hops[name][1].merge(service)
            else:
                merged_hops[name] = (wait, service)
        for name in d.get("hop_order", []):
            if name not in hop_order:
                hop_order.append(name)
    if not (merged_flows or merged_chains or merged_hops):
        return {}
    return {
        "flows": {fid: h.to_dict() for fid, h in sorted(merged_flows.items())},
        "chains": {n: h.to_dict() for n, h in sorted(merged_chains.items())},
        "hops": {n: {"wait": w.to_dict(), "service": s.to_dict()}
                 for n, (w, s) in sorted(merged_hops.items())},
        "hop_order": hop_order,
    }


def render_hop_table(latency_dict: Dict[str, Any], title: str) -> str:
    """The per-hop wait/service table, one row per hop in chain order."""
    from repro.metrics.report import render_table

    summary = summarize(latency_dict)
    rows: List[list] = []
    for name in summary.get("hop_order", []):
        hop = summary["hops"][name]
        rows.append([name, hop["count"], hop["wait_p50_us"],
                     hop["wait_p99_us"], hop["service_p50_us"],
                     hop["service_p99_us"]])
    if not rows:
        rows.append(["(no hops recorded)", 0, "-", "-", "-", "-"])
    return render_table(
        ["hop", "pkts", "wait p50 us", "wait p99 us", "svc p50 us",
         "svc p99 us"],
        rows, title=title,
    )
