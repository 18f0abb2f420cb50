"""Decentralized-control-plane benchmarks: disabled cost + takeover latency.

The gossip layer promises two numbers (``docs/gossip.md``):

1. **The substrate is free when off.**  With ``gossip_enabled=False``
   (the default) no agent constructs and every hot site reduces to an
   ``if self.gossip is not None:`` check.  Results are bitwise-identical
   (``tests/test_gossip.py``); this file bounds the *wall-clock* cost the
   same way ``bench_obs_overhead.py`` bounds the disabled tracer: the
   measured per-check cost of a ``None`` guard, multiplied by a generous
   upper bound on guarded-site crossings per kernel event, must stay
   under 5% of the measured per-event workload cost.  Ratio of two
   in-process medians — machine-independent.

2. **A dead Spawner is survived in bounded time.**  The ``spawner-down``
   scenario at quick scale must converge through a warm-standby
   takeover; the simulated latency from the crash to the standby's
   promotion is deterministic (same seed → same beats, probes, reign)
   and must stay within ``MAX_TAKEOVER_LATENCY`` simulated seconds.  The
   takeover figures go to ``results/gossip_takeover.txt``.
"""

from __future__ import annotations

import time

import pytest

from repro.apps import make_poisson_app
from repro.exec import RunSpec
from repro.experiments.config import optimal_overlap
from repro.experiments.report import format_table
from repro.faults import scenario, scenario_overrides
from repro.p2p import build_cluster, launch_application

REPEATS = 5
OVERHEAD_BUDGET = 0.05
#: generous upper bound on disabled-gossip guard sites crossed per kernel
#: event (spawner maintenance, daemon heartbeat/adoption, convergence
#: check — no event path crosses more than a handful)
GUARDS_PER_EVENT = 4
#: simulated seconds from the Spawner's crash to the standby's promotion
MAX_TAKEOVER_LATENCY = 1.0


def _median(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[len(ordered) // 2]


def _disabled_run() -> tuple[float, int]:
    """One gossip-off quick solve; returns (wall seconds, kernel events)."""
    cluster = build_cluster(n_daemons=6, n_superpeers=2, seed=0)
    app = make_poisson_app("bench", n=32, num_tasks=4,
                           overlap=optimal_overlap(32, 4))
    spawner = launch_application(cluster, app)
    sim = cluster.sim
    start = time.perf_counter()
    sim.run(until=spawner.done)
    wall = time.perf_counter() - start
    assert spawner.done.triggered
    return wall, sim.event_count


def _guard_cost_per_check() -> float:
    """Measured cost of one disabled-path ``is not None`` check."""
    gossip = None
    n = 200_000
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(n):
            if gossip is not None:  # pragma: no cover - never true
                raise AssertionError
        samples.append(time.perf_counter() - start)
    return _median(samples) / n


@pytest.mark.gossip_bench
def test_disabled_gossip_under_overhead_budget():
    walls, events = [], 0
    for _ in range(REPEATS):
        wall, events = _disabled_run()
        walls.append(wall)
    per_event = _median(walls) / events
    guard = _guard_cost_per_check()
    overhead_fraction = GUARDS_PER_EVENT * guard / per_event
    assert overhead_fraction < OVERHEAD_BUDGET, (
        f"guard check {guard * 1e9:.1f} ns vs {per_event * 1e9:.1f} ns/event"
    )


@pytest.mark.gossip_bench
def test_spawner_takeover_latency(record_table):
    plan = scenario("spawner-down")
    crash_time = plan.schedule()[0].time
    result = RunSpec(n=32, peers=4, seed=0, faults=plan,
                     **scenario_overrides("spawner-down")).run()
    assert result.converged and result.residual < 1e-4
    assert result.takeovers == 1 and result.takeover_at is not None
    latency = result.takeover_at - crash_time
    record_table("gossip_takeover", format_table(
        ["crash (s)", "takeover (s)", "latency (s)", "residual"],
        [[crash_time, result.takeover_at, latency, result.residual]],
        title="spawner-down, n=32, 4 peers, seed 0: warm-standby takeover",
    ))
    assert latency <= MAX_TAKEOVER_LATENCY, (
        f"takeover took {latency:.3f} simulated s > {MAX_TAKEOVER_LATENCY}"
    )
