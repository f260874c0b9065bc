"""The paper-claims table: every NFVnice shape this repo asserts.

This repo reproduces the paper's *shapes* — who wins, by what factor,
where crossovers fall — not its absolute numbers (DESIGN.md §1).  Each
:class:`Claim` row states one such shape as a measured relation:

* ``cells`` names the experiment runs the row reads.  A :class:`Cell` is
  an experiment id, a module-level callable of that experiment and the
  exact keyword arguments it is called with, ``duration_s`` and ``seed``
  included, so a cell computes the same result in any process.
* ``measure`` reduces those cells' results to one number (usually a
  factor between two systems);
* ``relation`` and ``bound`` say what the paper's shape requires of it.

``statement`` quotes the claim in words and is documentation only.

:func:`evaluate` checks rows either by running each distinct cell once
in this process or against a campaign's ``{cell: result}`` map
(:func:`campaign_results`), which is how a campaign baseline check
(:func:`repro.runner.baseline.check_campaign`, so also
``benchmarks/battery_smoke.py``) evaluates the rows its entry recorded.
``python -m repro.experiments.claims`` runs every row and prints the
report (exit 1 if any row fails); the tier-1 suite checks the same rows
in ``tests/test_claims.py``.
"""

from __future__ import annotations

import importlib
import math
import operator
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, \
    Set, Tuple, Union

from repro.experiments import slo_battery
from repro.experiments.cluster_scaling import cluster_block, gold_p99_us
from repro.experiments.fig15_fairness import fairness_of
from repro.metrics.report import format_value, render_table


@dataclass(frozen=True)
class Cell:
    """One experiment run: ``<experiment module>.<fn>(**kwargs)``."""

    experiment: str
    fn: str
    kwargs: Tuple[Tuple[str, Any], ...]

    @property
    def label(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.kwargs)
        return f"{self.experiment}.{self.fn}({args})"

    def run(self) -> Any:
        from repro.runner.campaign import experiment_registry

        module = importlib.import_module(
            experiment_registry()[self.experiment])
        return getattr(module, self.fn)(**dict(self.kwargs))


def cell(experiment: str, fn: str = "run_case", **kwargs: Any) -> Cell:
    return Cell(experiment, fn, tuple(sorted(kwargs.items())))


Bound = Union[float, Tuple[float, float]]

#: relation -> test of ``(measured, bound)``; ``in`` is an open interval.
RELATIONS: Dict[str, Callable[[float, Any], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "in": lambda value, bound: bound[0] < value < bound[1],
}


@dataclass(frozen=True)
class Claim:
    """One row of the table (see the module docstring)."""

    id: str
    figure: str
    statement: str
    cells: Mapping[str, Cell]
    measure: Callable[[Mapping[str, Any]], float]
    relation: str
    bound: Bound


@dataclass(frozen=True)
class Verdict:
    claim: Claim
    value: float
    ok: bool


def ratio(a: float, b: float) -> float:
    """``a / b``; NaN (which fails every relation) when ``b`` is 0."""
    return a / b if b else math.nan


def tput(result: Any) -> float:
    return result.total_throughput_pps


# ----------------------------------------------------------------------
# Cells.  SHORT_S is the horizon the per-figure rows run at; the headline
# rows keep the 0.4 s / 0.5 s horizons their shapes were pinned at.
# ----------------------------------------------------------------------
SHORT_S = 0.3
HML = ("High", "Med", "Low")
LMH = ("Low", "Med", "High")


def _fig01(scheduler: str) -> Cell:
    return cell("fig01", scheduler=scheduler, cost_mix="heterogeneous",
                load_mix="even", duration_s=SHORT_S, seed=0)


def _fig07(scheduler: str, features: str, duration_s: float) -> Cell:
    return cell("fig07", scheduler=scheduler, features=features,
                duration_s=duration_s, seed=0)


def _fig11(order: Tuple[str, str, str], scheduler: str, features: str,
           duration_s: float) -> Cell:
    return cell("fig11", order=order, scheduler=scheduler,
                features=features, duration_s=duration_s, seed=0)


def _tab05(features: str, duration_s: float) -> Cell:
    return cell("tab05", features=features, duration_s=duration_s, seed=0)


def _pair(make: Callable[[str], Cell]) -> Dict[str, Cell]:
    """Default (``d``) and NFVnice (``n``) cells of one configuration."""
    return {"d": make("Default"), "n": make("NFVnice")}


# The slo_battery and cluster_scaling horizons: benchmarks/battery_smoke.py
# runs both batteries at these, so its campaigns hold these rows' cells
# and the baseline check evaluates them.  0.75 s is cluster_scaling's own
# default; at 0.3 s its flash tail win is only 1.3x.
SLO_S = 0.1
CLUSTER_S = 0.75


def _slo_gold_ratio(results: Mapping[str, Any]) -> float:
    """min over workloads of EDF / NORMAL gold-class p99."""
    def p99(workload: str, scheduler: str) -> float:
        value = slo_battery.flow_p99_us(
            results[f"{workload}.{scheduler}"],
            slo_battery._flow_id("gold", workload, scheduler))
        return math.nan if value is None else value

    return min(ratio(p99(w, "EDF"), p99(w, "NORMAL"))
               for w in slo_battery.WORKLOADS)


SLO_CELLS = {f"{w}.{s}": cell("slo_battery", workload=w, scheduler=s,
                              duration_s=SLO_S, seed=0)
             for w in slo_battery.WORKLOADS for s in ("EDF", "NORMAL")}


XHOST_CELLS = {"off": cell("crosshost", ecn=False, duration_s=0.5, seed=0),
               "on": cell("crosshost", ecn=True, duration_s=0.5, seed=0)}


def _cluster(workload: str, mode: str) -> Cell:
    return cell("cluster_scaling", workload=workload, hosts=2, mode=mode,
                duration_s=CLUSTER_S, seed=0)


def _gold_p99(result: Any) -> float:
    value = gold_p99_us(result)
    return math.nan if value is None else round(value, 3)


def _scale_outs(result: Any) -> float:
    return float(cluster_block(result).get("autoscaler", {})
                 .get("scale_outs", 0))


def _share_spread(result: Any) -> float:
    shares = [result.nf(f"nf{i}").cpu_share for i in (1, 2, 3)]
    return max(shares) - min(shares)


def _preemptions(result: Any) -> float:
    return sum(result.nf(f"nf{i}").nvcswch_per_s for i in (1, 2))


def _bps(result: Any) -> float:
    return sum(c.throughput_bps for c in result.chains.values())


def _runtime_steps(result: Any) -> float:
    r1, r2, r3 = (result.nf(f"nf{i}").runtime_s for i in (1, 2, 3))
    return min(r2 - r1, r3 - r2)


CLAIMS: Tuple[Claim, ...] = (
    # -- Figure 1 / Tables 1-2: the scheduler motivation study --------
    Claim("fig01.cfs-equal-split", "Figure 1",
          "CFS NORMAL splits the core nearly evenly between NFs of "
          "different cost",
          {"r": _fig01("NORMAL")},
          lambda r: _share_spread(r["r"]), "<", 0.12),
    Claim("fig01.rr-heavy-hogs", "Figure 1",
          "RR(100 ms) hands the heavy NF most of the core",
          {"r": _fig01("RR_100MS")},
          lambda r: r["r"].nf("nf1").cpu_share, ">", 0.8),
    Claim("fig01.rr-light-starves", "Figure 1",
          "RR(100 ms) starves the light NF",
          {"r": _fig01("RR_100MS")},
          lambda r: r["r"].nf("nf3").cpu_share, "<", 0.1),
    Claim("fig01.normal-preempts", "Table 1",
          "NORMAL forces >5x the involuntary switches of BATCH",
          {"normal": _fig01("NORMAL"), "batch": _fig01("BATCH")},
          lambda r: _preemptions(r["normal"])
          / max(_preemptions(r["batch"]), 1), ">", 5.0),
    # -- Figure 7 / Tables 3-4: one shared core ----------------------
    Claim("fig07.nfvnice-beats-default", "Figure 7",
          "NFVnice raises chain throughput over Default under BATCH",
          _pair(lambda f: _fig07("BATCH", f, SHORT_S)),
          lambda r: ratio(tput(r["n"]), tput(r["d"])), ">", 1.0),
    *[Claim(f"tab03.{nf}-waste-cut", "Table 3",
            f"NFVnice cuts {nf.upper()}'s drops of processed packets "
            f">50x under BATCH",
            _pair(lambda f: _fig07("BATCH", f, SHORT_S)),
            lambda r, nf=nf: ratio(r["n"].nf(nf).wasted_pps,
                                   r["d"].nf(nf).wasted_pps),
            "<", 1 / 50)
      for nf in ("nf1", "nf2")],
    *[Claim(f"fig07.nfvnice-not-worse.{sched}", "Figure 7",
            f"NFVnice's chain throughput is at least Default's under "
            f"{sched} (0.4 s)",
            _pair(lambda f, s=sched: _fig07(s, f, 0.4)),
            lambda r: ratio(tput(r["n"]), tput(r["d"])), ">=", 1.0)
      for sched in ("NORMAL", "BATCH", "RR_1MS", "RR_100MS")],
    Claim("tab03.default-wastes", "Table 3",
          "Default BATCH drops >1 Mpps of already-processed packets "
          "(0.5 s)",
          {"d": _fig07("BATCH", "Default", 0.5)},
          lambda r: r["d"].total_wasted_pps, ">", 1e6),
    Claim("tab03.waste-cut-100x", "Table 3",
          "NFVnice cuts wasted work >100x under BATCH (0.5 s)",
          _pair(lambda f: _fig07("BATCH", f, 0.5)),
          lambda r: ratio(r["n"].total_wasted_pps, r["d"].total_wasted_pps),
          "<", 1 / 100),
    Claim("tab04.runtime-follows-cost", "Table 4",
          "NFVnice apportions runtime by cost: NF1 < NF2 < NF3 (runtime "
          "step, s; 0.5 s)",
          {"n": _fig07("BATCH", "NFVnice", 0.5)},
          lambda r: _runtime_steps(r["n"]), ">", 0.0),
    # -- Table 5: one core per NF --------------------------------------
    Claim("tab05.nf1-cpu-cut", "Table 5",
          "NFVnice runs NF1's core at <40% of Default's utilisation",
          _pair(lambda f: _tab05(f, SHORT_S)),
          lambda r: ratio(r["n"].core_utilization[0],
                          r["d"].core_utilization[0]), "<", 0.4),
    Claim("tab05.same-throughput", "Table 5",
          "NFVnice keeps Default's aggregate throughput within 15%",
          _pair(lambda f: _tab05(f, SHORT_S)),
          lambda r: abs(ratio(tput(r["n"]), tput(r["d"])) - 1), "<=", 0.15),
    Claim("tab05.same-throughput-0.5s", "Table 5",
          "NFVnice keeps Default's aggregate throughput within 10% "
          "(0.5 s)",
          _pair(lambda f: _tab05(f, 0.5)),
          lambda r: abs(ratio(tput(r["n"]), tput(r["d"])) - 1), "<=", 0.1),
    Claim("tab05.nf1-cpu-cut-0.5s", "Table 5",
          "NF1's core at <50% of Default's utilisation (0.5 s)",
          _pair(lambda f: _tab05(f, 0.5)),
          lambda r: ratio(r["n"].core_utilization[0],
                          r["d"].core_utilization[0]), "<", 0.5),
    Claim("tab05.nf2-cpu-cut-0.5s", "Table 5",
          "NF2's core at <90% of Default's utilisation (0.5 s)",
          _pair(lambda f: _tab05(f, 0.5)),
          lambda r: ratio(r["n"].core_utilization[1],
                          r["d"].core_utilization[1]), "<", 0.9),
    # -- Figure 9 / Table 6: chains sharing NF instances ---------------
    Claim("fig09.innocent-chain-gains", "Figure 9",
          "NFVnice lifts the innocent chain's throughput >1.2x",
          _pair(lambda f: cell("fig09", features=f, duration_s=SHORT_S,
                               seed=0)),
          lambda r: ratio(r["n"].chain("chain1").throughput_pps,
                          r["d"].chain("chain1").throughput_pps), ">", 1.2),
    Claim("fig09.bottleneck-chain-kept", "Figure 9",
          "NFVnice keeps >70% of the bottlenecked chain's rate",
          _pair(lambda f: cell("fig09", features=f, duration_s=SHORT_S,
                               seed=0)),
          lambda r: ratio(r["n"].chain("chain2").throughput_pps,
                          r["d"].chain("chain2").throughput_pps), ">", 0.7),
    # -- Figure 10: variable per-packet cost ---------------------------
    Claim("fig10.backpressure-beats-default", "Figure 10",
          "Backpressure alone beats Default under variable NF cost (BATCH)",
          {"d": cell("fig10", scheduler="BATCH", features="Default",
                     duration_s=SHORT_S, seed=0),
           "b": cell("fig10", scheduler="BATCH", features="OnlyBKPR",
                     duration_s=SHORT_S, seed=0)},
          lambda r: ratio(tput(r["b"]), tput(r["d"])), ">", 1.0),
    # -- Figure 11: chain orderings -------------------------------------
    Claim("fig11.rr100-heavy-first-collapse", "Figure 11",
          "Heavy-first chain under RR(100 ms) collapses below 60 Kpps",
          {"d": _fig11(HML, "RR_100MS", "Default", SHORT_S)},
          lambda r: tput(r["d"]), "<", 60_000),
    Claim("fig11.nfvnice-order-invariant", "Figure 11",
          "NFVnice throughput is within 15% across chain orders (BATCH)",
          {"lo": _fig11(LMH, "BATCH", "NFVnice", SHORT_S),
           "hi": _fig11(HML, "BATCH", "NFVnice", SHORT_S)},
          lambda r: abs(ratio(tput(r["lo"]), tput(r["hi"])) - 1),
          "<=", 0.15),
    Claim("fig11.rr100-collapse-0.5s", "Figure 11",
          "Heavy-first chain under RR(100 ms) collapses below 60 Kpps "
          "(0.5 s)",
          {"d": _fig11(HML, "RR_100MS", "Default", 0.5)},
          lambda r: tput(r["d"]), "<", 60_000),
    Claim("fig11.rr100-rescue", "Figure 11",
          "NFVnice restores Mpps-scale throughput there (0.5 s)",
          {"n": _fig11(HML, "RR_100MS", "NFVnice", 0.5)},
          lambda r: tput(r["n"]), ">", 1e6),
    # -- Figure 12: random per-flow NF orders ---------------------------
    Claim("fig12.nfvnice-robust-to-mix", "Figure 12",
          "NFVnice keeps >60% of its 1-flow throughput with 3 flows "
          "(BATCH)",
          {"one": cell("fig12", n_flows=1, scheduler="BATCH",
                       features="NFVnice", duration_s=SHORT_S, seed=1),
           "three": cell("fig12", n_flows=3, scheduler="BATCH",
                         features="NFVnice", duration_s=SHORT_S, seed=3)},
          lambda r: ratio(tput(r["three"]), tput(r["one"])), ">", 0.6),
    # -- Figure 13: TCP vs UDP isolation (18 s spans the UDP window) ---
    Claim("fig13.default-tcp-before", "Figure 13",
          "TCP runs at >3 Gbps before UDP starts (Default)",
          {"d": cell("fig13", features="Default", duration_s=18.0, seed=0)},
          lambda r: r["d"].tcp_before, ">", 3.0),
    Claim("fig13.default-tcp-collapse", "Figure 13",
          "Default: TCP collapses below 0.3 Gbps while UDP competes",
          {"d": cell("fig13", features="Default", duration_s=18.0, seed=0)},
          lambda r: r["d"].tcp_during, "<", 0.3),
    Claim("fig13.nfvnice-tcp-protected", "Figure 13",
          "NFVnice: TCP keeps >50% of its rate while UDP competes",
          {"n": cell("fig13", features="NFVnice", duration_s=18.0, seed=0)},
          lambda r: ratio(r["n"].tcp_during, r["n"].tcp_before), ">", 0.5),
    # -- Figure 14: NF disk I/O ----------------------------------------
    Claim("fig14.async-io-wins", "Figure 14",
          "Async I/O delivers >5x the sync-I/O bit rate (256 B packets)",
          _pair(lambda f: cell("fig14", pkt_size=256, features=f,
                               duration_s=SHORT_S, seed=0)),
          lambda r: ratio(_bps(r["n"]), _bps(r["d"])), ">", 5.0),
    # -- Figure 15: dynamic tuning and fairness -------------------------
    Claim("fig15a.initial-share", "Figure 15a",
          "Cost 1:3 — NF1 gets <35% of the core",
          {"n": cell("fig15", "run_dynamic_tuning", features="NFVnice",
                     duration_s=9.0, seed=0)},
          lambda r: r["n"].phase_shares["initial"][0], "<", 0.35),
    Claim("fig15a.stepped-share", "Figure 15a",
          "NF1's cost triples — its share moves to about half",
          {"n": cell("fig15", "run_dynamic_tuning", features="NFVnice",
                     duration_s=9.0, seed=0)},
          lambda r: r["n"].phase_shares["stepped"][0], "in", (0.4, 0.6)),
    Claim("fig15b.nfvnice-fairer", "Figure 15b",
          "NFVnice's Jain index beats Default's at cost diversity 4",
          _pair(lambda f: cell("fig15", "run_diversity_level", level=4,
                               features=f, duration_s=SHORT_S, seed=0)),
          lambda r: ratio(fairness_of(r["n"]), fairness_of(r["d"])), ">", 1.0),
    Claim("fig15b.nfvnice-fair", "Figure 15b",
          "NFVnice's Jain index stays >0.95 at cost diversity 4",
          {"n": cell("fig15", "run_diversity_level", level=4,
                     features="NFVnice", duration_s=SHORT_S, seed=0)},
          lambda r: fairness_of(r["n"]), ">", 0.95),
    # -- Figure 16: chain length ----------------------------------------
    Claim("fig16.sc-chain-flows", "Figure 16",
          "A 6-NF chain on one core still moves >100 Kpps (NFVnice)",
          {"sc": cell("fig16", length=6, placement="SC", features="NFVnice",
                      duration_s=SHORT_S, seed=0)},
          lambda r: tput(r["sc"]), ">", 100_000),
    Claim("fig16.mc-beats-sc", "Figure 16",
          "Spreading the 6-NF chain over 3 cores beats one core",
          {"sc": cell("fig16", length=6, placement="SC", features="NFVnice",
                      duration_s=SHORT_S, seed=0),
           "mc": cell("fig16", length=6, placement="MC", features="NFVnice",
                      duration_s=SHORT_S, seed=0)},
          lambda r: ratio(tput(r["mc"]), tput(r["sc"])), ">", 1.0),
    # -- Sec 4.3.8, ablations and extensions ----------------------------
    Claim("tuning.paper-margin-holds", "Sec 4.3.8",
          "The paper's 80/60 watermarks keep >=95% of a 1-point margin's "
          "throughput",
          {"tiny": cell("tuning", "run_point", high=0.80, low=0.79,
                        duration_s=SHORT_S, seed=0),
           "paper": cell("tuning", "run_point", high=0.80, low=0.60,
                         duration_s=SHORT_S, seed=0)},
          lambda r: ratio(tput(r["paper"]), tput(r["tiny"])), ">=", 0.95),
    Claim("ablations.selectivity-protects", "Sec 3.3 (Figure 8)",
          "Chain-selective throttling gives the innocent chain >3x the "
          "chain-agnostic throughput",
          {"sel": cell("ablations", "run_selectivity", selective=True,
                       duration_s=0.5, seed=0),
           "agn": cell("ablations", "run_selectivity", selective=False,
                       duration_s=0.5, seed=0)},
          lambda r: r["sel"].chain("chain1").throughput_pps
          / max(r["agn"].chain("chain1").throughput_pps, 1), ">", 3.0),
    Claim("ecn.drops-cut", "Sec 3.3 (ECN)",
          "ECN cuts TCP packet loss >5x",
          {"off": cell("ecn", ecn=False, duration_s=2.0, seed=0),
           "on": cell("ecn", ecn=True, duration_s=2.0, seed=0)},
          lambda r: ratio(r["on"].lost_packets, r["off"].lost_packets),
          "<", 1 / 5),
    Claim("ecn.marks-sent", "Sec 3.3 (ECN)",
          "The bottleneck marks packets when ECN is on",
          {"on": cell("ecn", ecn=True, duration_s=2.0, seed=0)},
          lambda r: r["on"].marked_packets, ">", 0),
    Claim("ecn.goodput-kept", "Sec 3.3 (ECN)",
          "With ECN, TCP keeps >30% of its no-ECN goodput",
          {"off": cell("ecn", ecn=False, duration_s=2.0, seed=0),
           "on": cell("ecn", ecn=True, duration_s=2.0, seed=0)},
          lambda r: ratio(r["on"].goodput_gbps, r["off"].goodput_gbps),
          ">", 0.3),
    # Measured 8,024 vs 617 lost (13.0x), 2.014 vs 2.516 Gbit/s (0.80).
    Claim("crosshost.ecn-cuts-loss", "Sec 3.3 (cross-host ECN)",
          "Across two hosts, ECN cuts TCP packet loss >10x "
          "(drops-only lost / ECN lost)", XHOST_CELLS,
          lambda r: ratio(r["off"].lost_packets, r["on"].lost_packets),
          ">", 10.0),
    Claim("crosshost.ecn-goodput-kept", "Sec 3.3 (cross-host ECN)",
          "Across two hosts, ECN keeps >70% of the drops-only goodput",
          XHOST_CELLS,
          lambda r: ratio(r["on"].goodput_gbps, r["off"].goodput_gbps),
          ">", 0.7),
    # -- SLO and cluster batteries (checked by battery_smoke.py too) ----
    Claim("slo.edf-beats-normal", "SLO battery",
          "EDF beats NORMAL on gold-class p99 in at least one workload "
          "(min EDF/NORMAL p99)",
          SLO_CELLS, _slo_gold_ratio, "<", 1.0),
    Claim("cluster.flash-scales-out", "Cluster battery",
          "The 2-host flash crowd forces at least one scale-out",
          {"auto": _cluster("flash", "auto")},
          lambda r: _scale_outs(r["auto"]), ">=", 1.0),
    # Measured static/auto gold p99 on 2 hosts: flash 3377.4 / 149.3 us
    # (22.6x), mmpp 4016.5 / 2190.0 us (1.83x).
    *[Claim(f"cluster.{workload}-tail-win", "Cluster battery",
            f"Elastic beats static provisioning on {workload} gold p99 "
            f"by >{bound:g}x (static/auto)",
            {"auto": _cluster(workload, "auto"),
             "static": _cluster(workload, "static")},
            lambda r: ratio(_gold_p99(r["static"]), _gold_p99(r["auto"])),
            ">", bound)
      for workload, bound in (("flash", 10.0), ("mmpp", 1.5))],
)


def claims_of(experiment: str) -> List[Claim]:
    """The rows that read only ``experiment``'s cells."""
    return [c for c in CLAIMS
            if all(x.experiment == experiment for x in c.cells.values())]


def evaluate(claims: Sequence[Claim],
             results: Optional[Mapping[Cell, Any]] = None) -> List[Verdict]:
    """One :class:`Verdict` per row.

    With ``results`` (a campaign's ``{cell: result}``, see
    :func:`campaign_results`) every cell is read from it and a missing
    one raises ``ValueError``; without, each distinct cell runs once in
    this process.
    """
    if results is None:
        ran: Dict[Cell, Any] = {}
        for claim in claims:
            for c in claim.cells.values():
                if c not in ran:
                    ran[c] = c.run()
        results = ran
    verdicts = []
    for claim in claims:
        for c in claim.cells.values():
            if c not in results:
                raise ValueError(f"claim {claim.id}: no result for cell "
                                 f"{c.label}")
        value = claim.measure({name: results[c]
                               for name, c in claim.cells.items()})
        verdicts.append(Verdict(claim, value,
                                RELATIONS[claim.relation](value, claim.bound)))
    return verdicts


def campaign_results(report: Any, cells: Set[Cell]) -> Dict[Cell, Any]:
    """``{cell: ScenarioResult}`` for the tasks of one experiment's
    campaign report that ran one of ``cells`` (telemetry reattached, as
    the claims read p99s from it)."""
    from repro.runner.campaign import outcome_result

    results: Dict[Cell, Any] = {}
    for o in report.tasks:
        key = cell(o.spec.experiment, o.spec.fn, **o.spec.kwargs)
        if key in cells:
            results[key] = outcome_result(o)
    return results


def render_claims(verdicts: Sequence[Verdict]) -> str:
    rows = [[v.claim.id, v.claim.figure, v.value, v.claim.relation,
             format_value(v.claim.bound) if v.claim.relation != "in"
             else f"({v.claim.bound[0]:g}, {v.claim.bound[1]:g})",
             "pass" if v.ok else "FAIL"]
            for v in verdicts]
    passed = sum(v.ok for v in verdicts)
    return render_table(
        ["claim", "paper", "measured", "rel", "bound", "verdict"], rows,
        title=f"Paper claims: {passed}/{len(verdicts)} rows hold")


def main() -> int:
    verdicts = evaluate(CLAIMS)
    print(render_claims(verdicts))
    return 0 if all(v.ok for v in verdicts) else 1


if __name__ == "__main__":  # pragma: no cover - manual runs
    sys.exit(main())
