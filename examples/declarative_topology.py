#!/usr/bin/env python3
"""Running a JSON-described topology (the paper's Flow Rule Installer).

Loads ``examples/topologies/edge_gateway.json`` — two service chains over
four NFs with mixed cost models, a prioritised shaper, and a flow that
switches on mid-run — runs it for a simulated second, and reports the
per-chain outcome.  Equivalent CLI:

    python -m repro topology examples/topologies/edge_gateway.json

Run:  python examples/declarative_topology.py
"""

import pathlib

from repro import load_topology, render_table

SPEC = pathlib.Path(__file__).parent / "topologies" / "edge_gateway.json"


def main() -> None:
    scenario = load_topology(SPEC)
    duration_s = 1.0
    result = scenario.run(duration_s)

    rows = []
    for chain in result.chains.values():
        rows.append([
            chain.name,
            round(chain.throughput_pps / 1e6, 3),
            round(chain.entry_discard_pps / 1e6, 3),
            round(chain.latency_p50_us, 1),
        ])
    print(render_table(
        ["chain", "tput Mpps", "entry-drop Mpps", "p50 latency us"],
        rows, title=f"topology {SPEC.name} after {duration_s:g} s",
    ))
    flows = [spec.flow for spec in scenario.generator.specs]
    rows = [[f.flow_id, f.stats.offered, f.stats.delivered, f.stats.lost]
            for f in flows]
    print(render_table(["flow", "offered", "delivered", "lost"], rows,
                       title="per-flow accounting"))

if __name__ == "__main__":
    main()
