"""Batched compute plane benchmark: cohort-vectorized direct solves.

Two arms, one committed artifact (``BENCH_compute.json``):

* **speedup** — a compute-heavy 16-peer Poisson run with cached-LU inner
  solves (``inner_solver="direct"``), timed plane-on in ``"panel"`` mode
  (always-stacked multi-RHS solves; interior strip blocks are
  byte-identical, so one cohort factorizes once for all of them) against
  the full bypass under :func:`repro.util.hotpath.hotpath_disabled` (legacy
  per-task decomposition, per-task factorization, single-vector solves,
  eager copies).  Panel mode is the throughput arm and is *not* claimed
  bitwise against the 1-D path, so this arm asserts convergence, not
  equality.  The committed ``speedup`` is gated (>= ``MIN_SPEEDUP``) by
  ``scripts/check_bench_regression.py``.

* **identity** — the default ``"auto"`` plane (probe-gated panels, lazy
  deferral, solve memo, zero-copy payload/checkpoint paths) against the
  same bypass at a smaller scale, asserting the run is **bitwise
  identical**: same simulated convergence time, same iteration count, same
  assembled solution bytes.  Recorded as ``bitwise_identical``, which the
  regression gate requires to be present and true.

``REPRO_COMPUTE_SMOKE=1`` runs the identity arm only — the
machine-independent half — and records to
``benchmarks/results/compute_smoke.json`` instead of the committed
baseline; CI uses it as a fast A/B-equivalence check without timing noise.
"""

from __future__ import annotations

import os
import time

from repro.apps import make_poisson_app
from repro.checkpoint import FixedPolicy
from repro.experiments.config import EXPERIMENT_LINK_SCALE, optimal_overlap
from repro.p2p import P2PConfig, build_cluster, launch_application
from repro.util.hotpath import clear_caches, hotpath_disabled

#: required plane-on vs bypass wall-clock ratio for the speedup arm
MIN_SPEEDUP = 1.8

#: best-of-k wall-clock measurement per arm
REPS = 2

#: quiet protocol layer (as bench_hotpath): the run measures inner-solve
#: and payload hot paths, not failure detection or checkpoint traffic
QUIET_CONFIG = P2PConfig(
    heartbeat_period=30.0,
    heartbeat_timeout=95.0,
    monitor_period=30.0,
    standby_takeover_timeout=95.0,
    stability_window=3,
)
QUIET_CHECKPOINT = FixedPolicy(count=20, frequency=10_000)

SPEEDUP_KW = dict(n=320, peers=16, seed=0, threshold=1e-3, horizon=3600.0)
#: identity scale chosen inside the probe-certified regime (block size
#: ~1k rows), so the stacked panel path itself is exercised bitwise
IDENTITY_KW = dict(n=64, peers=8, seed=0, threshold=1e-6, horizon=3600.0)


def _run(n: int, peers: int, seed: int, threshold: float, horizon: float,
         direct_mode: str = "auto"):
    """One hand-assembled direct-solver Poisson run (mirrors
    bench_swarm's harness so the cluster's compute plane stays
    reachable).  Returns ``(signature, plane_stats, wall_seconds)``."""
    cluster = build_cluster(
        n_daemons=peers,
        n_superpeers=3,
        seed=seed,
        config=QUIET_CONFIG,
        link_scale=EXPERIMENT_LINK_SCALE,
        checkpoint=QUIET_CHECKPOINT,
    )
    cluster.compute.direct_mode = direct_mode
    app = make_poisson_app(
        "poisson",
        n=n,
        num_tasks=peers,
        overlap=optimal_overlap(n, peers),
        inner_solver="direct",
        convergence_threshold=threshold,
    )
    t0 = time.perf_counter()
    spawner = launch_application(cluster, app)
    sim = cluster.sim
    sim.run(until=sim.any_of([spawner.done, sim.timeout(horizon)]))
    assert spawner.done.triggered, "direct-solver run did not converge"
    proc = sim.process(spawner.collect_solution())
    sim.run(until=proc)
    wall = time.perf_counter() - t0
    fragments = tuple(
        (tid, None if frag is None else (frag[0], frag[1].tobytes()))
        for tid, frag in sorted(proc.value.items())
    )
    signature = (spawner.execution_time,
                 cluster.telemetry.total_iterations, fragments)
    return signature, cluster.compute.stats(), wall


def _best_of(direct_mode: str, bypass: bool, **kw):
    def once():
        if bypass:
            with hotpath_disabled():
                return _run(direct_mode=direct_mode, **kw)
        clear_caches()  # the plane arm pays its own builds: no pre-warming
        return _run(direct_mode=direct_mode, **kw)

    signature, stats, best = once()
    for _ in range(REPS - 1):
        again, stats, elapsed = once()
        assert again == signature  # every repetition is deterministic
        best = min(best, elapsed)
    return signature, stats, best


def test_compute_plane_speedup(record_json):
    smoke = os.environ.get("REPRO_COMPUTE_SMOKE") == "1"

    # -- identity arm: auto mode must be invisible to the simulation
    plane_sig, plane_stats, _ = _best_of("auto", bypass=False, **IDENTITY_KW)
    bypass_sig, _, _ = _best_of("auto", bypass=True, **IDENTITY_KW)
    bitwise_identical = plane_sig == bypass_sig
    assert bitwise_identical, (
        "auto-mode compute plane perturbed the simulation: "
        f"{plane_sig[:2]} != {bypass_sig[:2]}"
    )
    assert plane_stats["deferred"] > 0  # the lazy path actually ran
    assert plane_stats["batched_columns"] > 0  # panels engaged (probe passed)

    if smoke:
        # identity only: no wall-clock arm, no baseline overwrite
        record_json("compute_smoke", {
            **{f"identity_{k}": v for k, v in IDENTITY_KW.items()},
            "bitwise_identical": bitwise_identical,
            "identity_deferred": plane_stats["deferred"],
            "identity_memo_hits": plane_stats["memo_hits"],
            "smoke": True,
        })
        return

    # -- speedup arm: panel mode vs the full bypass
    _, panel_stats, t_plane = _best_of("panel", bypass=False, **SPEEDUP_KW)
    _, _, t_bypass = _best_of("panel", bypass=True, **SPEEDUP_KW)
    speedup = t_bypass / t_plane

    record_json("BENCH_compute", {
        **{f"speedup_{k}": v for k, v in SPEEDUP_KW.items()},
        **{f"identity_{k}": v for k, v in IDENTITY_KW.items()},
        "reps": REPS,
        "wall_seconds_plane": round(t_plane, 3),
        "wall_seconds_bypass": round(t_bypass, 3),
        "speedup": round(speedup, 2),
        "min_speedup": MIN_SPEEDUP,
        "bitwise_identical": bitwise_identical,
        "identity_deferred": plane_stats["deferred"],
        "identity_memo_hits": plane_stats["memo_hits"],
        "cohorts": panel_stats["cohorts"],
        "flushes": panel_stats["flushes"],
        "batched_columns": panel_stats["batched_columns"],
        "loop_columns": panel_stats["loop_columns"],
    })
    assert speedup >= MIN_SPEEDUP, (
        f"compute-plane speedup regressed: {speedup:.2f}x < {MIN_SPEEDUP}x "
        f"(bypass {t_bypass:.2f}s, plane {t_plane:.2f}s)"
    )
