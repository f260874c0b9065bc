"""Platform-wide configuration.

One dataclass gathers every tunable the paper mentions, with defaults set
to the paper's operating points: 4096-descriptor rings, 80 %/60 % water-
marks (§4.3.8 found HIGH=80 % and a margin of 20 to work best), 1000 Hz
monitoring, 10 ms cgroup weight updates, batches of 32 packets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.clock import CPU_FREQ_HZ, MSEC, USEC


@dataclass
class PlatformConfig:
    """Knobs for the NF Manager, rings, scheduling and NFVnice policies."""

    # --- rings (per NF) -------------------------------------------------
    ring_capacity: int = 4096
    high_watermark: float = 0.80   # §4.3.8: 80% worked "well"
    low_watermark: float = 0.60    # margin of 20 performed best

    # --- manager threads (dedicated cores, §3.1) -------------------------
    rx_poll_ns: int = 50 * USEC    # Rx thread poll period
    #: Per-Rx-thread delivery capacity: flow-table lookup plus descriptor
    #: copy bounds a single manager Rx thread to a few Mpps on real
    #: hardware.  ``num_rx_threads`` scales the budget ("the number of Rx,
    #: Tx and monitor threads are configurable", §3.1); None = unbounded.
    rx_thread_max_pps: float = 6_800_000.0
    num_rx_threads: int = 1
    #: Tx threads; NFs are partitioned round-robin across them, each thread
    #: ferrying its subset's output every ``tx_poll_ns`` with a phase offset.
    num_tx_threads: int = 1
    tx_poll_ns: int = 50 * USEC    # Tx thread poll period
    wakeup_scan_ns: int = 100 * USEC  # Wakeup thread scan period
    monitor_period_ns: int = 1 * MSEC  # load estimation, 1000 Hz (§1, §3.5)
    weight_update_ns: int = 10 * MSEC  # cgroup weight writes (§3.5)

    # --- NF execution -----------------------------------------------------
    nf_batch_size: int = 32        # libnf processes at most 32 pkts/batch (§3.2)
    #: Framework cost per packet (ring ops, descriptors, libnf bookkeeping)
    #: added on top of each NF's own packet-handler cost.
    nf_overhead_cycles: float = 100.0
    cpu_freq_hz: float = CPU_FREQ_HZ
    ctx_switch_ns: int = 1_500     # direct + cache cost per task switch

    # --- NUMA (§1: schedulers "have to be cognizant of NUMA concerns") ---
    #: Worker cores per socket; the testbed is a dual-socket 56-core box.
    cores_per_socket: int = 28
    #: Extra per-packet cycles an NF pays when its upstream hop lives on
    #: the other socket (remote-memory descriptor + payload access).
    numa_penalty_cycles: float = 150.0

    # --- backpressure (§3.3) ----------------------------------------------
    enable_backpressure: bool = True
    queuing_time_threshold_ns: int = 100 * USEC  # qtime gate in Fig 4
    #: When True, a throttled chain also evicts upstream NFs that have no
    #: other un-throttled chain to serve (the relinquish flag path).
    enable_relinquish: bool = True

    # --- cgroup weight policy (§3.2) ---------------------------------------
    enable_cgroups: bool = True
    #: EWMA smoothing for the 1 ms arrival-rate estimate.
    arrival_ewma_alpha: float = 0.10
    service_window_ns: int = 100 * MSEC  # median window for service time
    service_sample_period_ns: int = 1 * MSEC  # libnf sampling period
    warmup_discard_samples: int = 10   # §4.3.8: first 10 samples discarded
    #: "median" (the paper's robust choice, §3.5) or "mean" (ablation).
    service_estimator: str = "median"
    #: Selective per-chain throttling (Figure 5).  False = chain-agnostic
    #: ablation: a congested NF throttles every chain through it, including
    #: ones whose bottleneck is elsewhere.
    selective_chain_throttle: bool = True

    # --- ECN (§3.3) ---------------------------------------------------------
    enable_ecn: bool = False
    ecn_ewma_alpha: float = 0.02
    #: RED-style marking ramp on the EWMA queue length: no marks below
    #: ``ecn_min_fraction`` of capacity, all packets marked above
    #: ``ecn_max_fraction`` (RFC 3168 via [42]'s recommendation).
    ecn_min_fraction: float = 0.15
    ecn_max_fraction: float = 0.50

    def with_features(self, cgroups: bool, backpressure: bool,
                      ecn: bool = False) -> "PlatformConfig":
        """Copy of this config with the NFVnice feature toggles replaced.

        The evaluation compares Default / "Only cgroups" / "Only BKPR" /
        full NFVnice (§4.2); this is the switchboard for those variants.
        """
        import dataclasses

        return dataclasses.replace(
            self,
            enable_cgroups=cgroups,
            enable_backpressure=backpressure,
            enable_relinquish=backpressure and self.enable_relinquish,
            enable_ecn=ecn,
        )


#: The Default platform: stock OpenNetVM behaviour with no NFVnice policy.
def default_platform_config(**overrides) -> PlatformConfig:
    """A config with every NFVnice feature off (the paper's "Default")."""
    cfg = PlatformConfig(
        enable_backpressure=False,
        enable_cgroups=False,
        enable_ecn=False,
        enable_relinquish=False,
    )
    import dataclasses

    return dataclasses.replace(cfg, **overrides) if overrides else cfg
