"""Experiment-wide constants.

These pin the *scaled* reproduction regime.  The guiding invariants, in the
paper's terms:

* failure-detection + replacement latency must be a small fraction of a
  run (paper: seconds against 1000–7000 s runs) — hence the fast
  heartbeat/timeout values against our 1–10 s runs;
* the reconnect delay is a few × the detection latency (paper: ≈20 s
  against a multi-second detection);
* ratio (4) — compute per iteration / communication per iteration — must
  cross from ≪1 (small n) to ≈1 (large n) across the sweep — hence
  ``EXPERIMENT_LINK_SCALE``;
* checkpoint every 5 iterations and 20 backup-peers, verbatim from §7
  (the backup count clamps to peers−1 at our scale) — the defaults of
  :class:`repro.checkpoint.FixedPolicy`, which ``RunSpec`` resolves to.
"""

from __future__ import annotations

from repro.p2p.config import P2PConfig

__all__ = [
    "EXPERIMENT_CONFIG",
    "EXPERIMENT_LINK_SCALE",
    "RECONNECT_DELAY",
    "optimal_overlap",
]

#: runtime settings used by every experiment
EXPERIMENT_CONFIG = P2PConfig(
    heartbeat_period=0.1,
    heartbeat_timeout=0.35,
    monitor_period=0.1,
    call_timeout=0.5,
    bootstrap_retry_delay=0.2,
    reserve_retry_period=0.2,
    convergence_threshold=1e-6,
    # The quiet streak must outlast a message round-trip, or a correction
    # wave still in flight lets the naive centralized detector (§5.5)
    # declare convergence prematurely: 48 x min_iteration_time ~ 29 ms
    # > the scaled worst-case RTT (~24 ms).
    stability_window=48,
    min_iteration_time=5e-4,
    iteration_overhead=2e-4,
    # epidemic control plane, scaled to the same regime: a dissemination
    # round is half a heartbeat, and a leadership silence of three
    # heartbeat-timeouts triggers the standby's takeover probe
    gossip_period=0.05,
    gossip_stale_after=0.5,
    bootstrap_retry_max=1.6,
    standby_sync_period=0.05,
    standby_takeover_timeout=0.3,
)

#: latency multiplier / bandwidth divisor preserving the paper's ratio-(4)
#: regime at ~1000x smaller problem sizes (see module docstring)
EXPERIMENT_LINK_SCALE = 20.0

#: scaled stand-in for the paper's "reconnected about 20 seconds later"
RECONNECT_DELAY = 1.0


def optimal_overlap(n: int, peers: int) -> int:
    """The stand-in for §7's "an optimal overlapping value is used for each
    n": half the strip width, clamped to the decomposition's validity bound.

    Empirically (see ``benchmarks/bench_overlap.py``) iteration counts
    decrease monotonically in the overlap up to nearly the full strip
    width; half-width captures most of the gain while keeping the inner
    solves cheap — and, like the paper's optimal values, it grows with n.
    """
    width = n // peers
    return max(0, min(width - 1, width // 2))
