"""Hot-path regression benchmark: cached vs cache-bypass wall clock.

One 16-task Poisson run (setup + solve) is timed on identical parameters
and seed under both arms:

* **cached** — the default fast path: shared frozen decomposition, cached
  per-block CG operators with preallocated work vectors, memoized message
  sizes;
* **bypass** — ``use_cache=False`` under
  :func:`repro.util.hotpath.hotpath_disabled`, which forces the original
  allocating code on every layer (per-task legacy CSC decomposition
  build, allocating CG loop, isinstance-cascade size walk).

The configuration is the cache-sensitive regime: a large grid split over
16 peers — so the bypass arm rebuilds a 400k-unknown decomposition
sixteen times — with warm-started, tightly capped inner solves and a
loose outer threshold, so the (cache-independent) numerical work stays
small relative to setup.

Both arms must produce **bitwise-identical** simulated results (time,
iteration counts, residual) — the caches are a wall-clock optimization
only — and the cached arm must be at least ``MIN_SPEEDUP`` faster.  Each
arm is timed best-of-``REPS`` to suppress scheduler noise.  The measured
numbers are written to ``BENCH_hotpath.json`` (repo root + results/),
which CI uses as the regression baseline.
"""

from __future__ import annotations

import time

from repro.checkpoint import FixedPolicy
from repro.experiments.driver import run_poisson_on_p2p
from repro.p2p import P2PConfig
from repro.util.hotpath import clear_caches, hotpath_disabled

#: required cached-vs-bypass wall-clock ratio
MIN_SPEEDUP = 3.0

#: best-of-k wall-clock measurement per arm
REPS = 3

RUN_KW = dict(
    n=640,
    peers=16,
    seed=0,
    overlap=6,
    warm_start=True,
    inner_max_iter=1,
    convergence_threshold=3e-1,
    horizon=3600.0,
    # quiet protocol layer: no checkpoint traffic, slow heartbeats — the
    # run measures numerics + messaging hot paths, not failure detection
    config=P2PConfig(
        heartbeat_period=30.0,
        heartbeat_timeout=95.0,
        monitor_period=30.0,
        standby_takeover_timeout=95.0,
        stability_window=3,
    ),
    checkpoint=FixedPolicy(count=20, frequency=10_000),
)


def _run_arm(use_cache: bool):
    if use_cache:
        clear_caches()  # the cached arm pays its own build: no pre-warming
        t0 = time.perf_counter()
        result = run_poisson_on_p2p(use_cache=True, **RUN_KW)
        elapsed = time.perf_counter() - t0
    else:
        with hotpath_disabled():
            t0 = time.perf_counter()
            result = run_poisson_on_p2p(use_cache=False, **RUN_KW)
            elapsed = time.perf_counter() - t0
    return result, elapsed


def _best_of(use_cache: bool):
    result, best = _run_arm(use_cache)
    for _ in range(REPS - 1):
        again, elapsed = _run_arm(use_cache)
        assert again == result  # every repetition is bitwise-deterministic
        best = min(best, elapsed)
    return result, best


def test_hotpath_speedup(record_json):
    bypass, t_bypass = _best_of(use_cache=False)
    cached, t_cached = _best_of(use_cache=True)

    assert cached.converged and bypass.converged

    # The caches must be invisible to the simulation: bitwise-equal results.
    assert cached.simulated_time == bypass.simulated_time
    assert cached.total_iterations == bypass.total_iterations
    assert cached.residual == bypass.residual

    speedup = t_bypass / t_cached
    record_json("BENCH_hotpath", {
        "n": RUN_KW["n"],
        "peers": RUN_KW["peers"],
        "overlap": RUN_KW["overlap"],
        "seed": RUN_KW["seed"],
        "inner_max_iter": RUN_KW["inner_max_iter"],
        "convergence_threshold": RUN_KW["convergence_threshold"],
        "reps": REPS,
        "wall_seconds_bypass": round(t_bypass, 3),
        "wall_seconds_cached": round(t_cached, 3),
        "speedup": round(speedup, 2),
        "min_speedup": MIN_SPEEDUP,
        "simulated_time": cached.simulated_time,
        "total_iterations": cached.total_iterations,
        "residual": cached.residual,
        "bitwise_identical": True,
    })
    assert speedup >= MIN_SPEEDUP, (
        f"hot-path speedup regressed: {speedup:.2f}x < {MIN_SPEEDUP}x "
        f"(bypass {t_bypass:.2f}s, cached {t_cached:.2f}s)"
    )
