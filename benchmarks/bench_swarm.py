"""Swarm-scale benchmark: a 10,000+-Daemon run must stay tractable.

The tentpole claim of docs/scaling.md, measured: one Poisson application
(16 computing peers) deployed on a **10,500-Daemon** population under a
three-tier Super-Peer hierarchy, with every idle heartbeat riding the
kernel's slotted :class:`~repro.des.TimerWheel` instead of a dedicated DES
process.  The run must converge on CI-class hardware; the committed
``BENCH_swarm.json`` records

* ``daemons`` / ``events`` / ``wall_seconds`` / ``events_per_sec`` — the
  throughput of the swarm run (machine-dependent; gated with a wide
  allowance plus an absolute floor),
* ``peak_rss_mb`` — memory ceiling (the point of partitioned registers
  and the wheel: no O(cluster) actor state, no per-Daemon process stacks),
* ``heartbeat_collapse_ratio`` — a **deterministic, machine-independent**
  arm: kernel events processed by an idle 1,000-Daemon cluster in process
  mode divided by the same cluster in wheel mode over the same simulated
  window.  This is the kernel-level cost collapse itself, immune to
  runner speed,
* ``profile_top`` — the top-10 functions by cumulative time from a
  profiled smoke-scale run (:mod:`repro.obs.profile`): the committed
  baseline doubles as a where-does-the-time-go ledger, so a future
  regression can be diffed against it function by function.

``scripts/check_bench_regression.py`` gates all of the above against the
committed baseline.  Environment knobs:

* ``REPRO_SWARM_DAEMONS`` — override the swarm population (default 10500);
* ``REPRO_SWARM_SMOKE=1`` — CI smoke mode: a 1,000-Daemon run recorded to
  ``benchmarks/results/swarm_smoke.json`` (the committed baseline is NOT
  overwritten by smoke runs).
"""

from __future__ import annotations

import os
import resource
import time

from repro.apps import make_poisson_app
from repro.experiments.config import (
    EXPERIMENT_CONFIG,
    EXPERIMENT_LINK_SCALE,
    optimal_overlap,
)
from repro.p2p import build_cluster, launch_application

#: the committed baseline's population (acceptance floor: >= 10,000)
SWARM_DAEMONS = 10_500
#: CI smoke population
SMOKE_DAEMONS = 1_000

#: the swarm topology: 32 leaf Super-Peers under fanout-8 interior tiers
#: (tier sizes 32 / 4 / 1 — ~330 Daemons per leaf Register at full scale)
LEAF_SUPERPEERS = 32
SWARM_CONFIG = EXPERIMENT_CONFIG.with_(
    superpeer_tiers=3,
    superpeer_fanout=8,
    heartbeat_mode="wheel",
)

#: the application riding on the swarm (identical to the repo's standard
#: 16-peer run; the other ~10,484 Daemons heartbeat idle)
APP_KW = dict(n=40, peers=16, seed=0, horizon=120.0)

#: idle-cluster population for the deterministic collapse-ratio arm
RATIO_DAEMONS = 1_000
RATIO_WINDOW = 5.0  # simulated seconds of pure heartbeating


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_swarm(n_daemons: int):
    """One application run on an ``n_daemons`` swarm, mirroring
    :func:`repro.experiments.driver.execute_spec` (assembled by hand so
    the kernel's event counter and the wheel stats stay reachable)."""
    cluster = build_cluster(
        n_daemons=n_daemons,
        n_superpeers=LEAF_SUPERPEERS,
        seed=APP_KW["seed"],
        config=SWARM_CONFIG,
        link_scale=EXPERIMENT_LINK_SCALE,
    )
    app = make_poisson_app(
        "poisson",
        n=APP_KW["n"],
        num_tasks=APP_KW["peers"],
        overlap=optimal_overlap(APP_KW["n"], APP_KW["peers"]),
        convergence_threshold=1e-6,
    )
    spawner = launch_application(cluster, app)
    sim = cluster.sim
    # timed under the kernel's own collector discipline
    # (repro.des.collector), like every other caller of sim.run()
    t0 = time.perf_counter()
    sim.run(until=sim.any_of([spawner.done,
                              sim.timeout(APP_KW["horizon"])]))
    wall = time.perf_counter() - t0
    return cluster, spawner, wall


def _idle_events(heartbeat_mode: str) -> int:
    """Kernel events processed by an idle RATIO_DAEMONS cluster over
    RATIO_WINDOW simulated seconds — the deterministic collapse arm."""
    cluster = build_cluster(
        n_daemons=RATIO_DAEMONS,
        n_superpeers=LEAF_SUPERPEERS,
        seed=1,
        config=SWARM_CONFIG.with_(heartbeat_mode=heartbeat_mode),
        link_scale=EXPERIMENT_LINK_SCALE,
    )
    cluster.sim.run(until=RATIO_WINDOW)
    return cluster.sim.event_count


def _profile_top(top_n: int = 10) -> list:
    """Per-function attribution of a profiled smoke-scale swarm run.

    Profiled *separately* from the timed arm (cProfile's tracing hook
    would poison ``wall_seconds``), at SMOKE scale so full-scale baseline
    recording stays tractable."""
    from repro.obs.profile import profile_callable

    report, _ = profile_callable(
        lambda: _run_swarm(SMOKE_DAEMONS), top_n=top_n
    )
    return report.as_dict()["top"]


def test_swarm_scale(record_json):
    smoke = os.environ.get("REPRO_SWARM_SMOKE") == "1"
    daemons = int(os.environ.get(
        "REPRO_SWARM_DAEMONS", SMOKE_DAEMONS if smoke else SWARM_DAEMONS
    ))

    # -- the swarm run goes FIRST for peak_rss_mb's sake, not the clock's:
    # the auxiliary arms below leave dead 1,000-Daemon worlds on the heap
    # until a full collector pass falls due, and a swarm built on top of
    # them peaks ~8 MB above the whole bench run in this order (events/s
    # is order-independent)
    cluster, spawner, wall = _run_swarm(daemons)

    # -- deterministic collapse ratio (machine-independent: event counts)
    events_process = _idle_events("process")
    events_wheel = _idle_events("wheel")
    collapse = events_process / events_wheel

    # -- where-does-the-time-go ledger (separate profiled smoke run)
    profile_top = _profile_top()
    sim = cluster.sim
    assert spawner.done.triggered, (
        f"{daemons}-Daemon swarm run did not converge within "
        f"{APP_KW['horizon']} simulated seconds"
    )
    events_per_sec = sim.event_count / wall

    wheel = cluster.wheel
    payload = {
        "daemons": daemons,
        "leaf_superpeers": LEAF_SUPERPEERS,
        "superpeer_tiers": SWARM_CONFIG.superpeer_tiers,
        "superpeers_total": len(cluster.superpeers),
        "n": APP_KW["n"],
        "peers": APP_KW["peers"],
        "seed": APP_KW["seed"],
        "converged": spawner.done.triggered,
        "simulated_time": spawner.execution_time,
        "events": sim.event_count,
        "wall_seconds": round(wall, 3),
        "events_per_sec": round(events_per_sec, 1),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "batched_calls": sim.batched_calls,
        "wheel_slots_fired": wheel.slots_fired,
        "wheel_timers_fired": wheel.timers_fired,
        "ratio_daemons": RATIO_DAEMONS,
        "ratio_window": RATIO_WINDOW,
        "idle_events_process": events_process,
        "idle_events_wheel": events_wheel,
        "heartbeat_collapse_ratio": round(collapse, 2),
        "profile_top": profile_top,
        "smoke": smoke,
    }
    record_json("swarm_smoke" if smoke else "BENCH_swarm", payload)

    # the wheel must actually collapse heartbeat cost, at any scale
    assert collapse >= 1.5, (
        f"timer wheel no longer collapses heartbeat cost: process-mode "
        f"events / wheel-mode events = {collapse:.2f} < 1.5"
    )
    if not smoke:
        assert daemons >= 10_000, "the committed baseline must be swarm-scale"
