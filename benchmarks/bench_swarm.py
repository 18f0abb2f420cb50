"""Swarm-scale benchmark: a 10,000+-Daemon run must converge.

The tentpole claim of docs/scaling.md, checked: one Poisson application
(16 computing peers) deployed on a **10,500-Daemon** population under a
three-tier Super-Peer hierarchy, with every idle heartbeat riding the
kernel's slotted :class:`~repro.des.TimerWheel` instead of a dedicated DES
process.  Asserted:

* the swarm run converges and the population is swarm-scale
  (``daemons >= 10,000``);
* ``heartbeat_collapse_ratio >= 2.2`` — kernel events processed by an idle
  1,000-Daemon cluster in process mode divided by the same cluster in
  wheel mode over the same simulated window.  Event counts are
  deterministic per seed, so this is the kernel-level cost collapse
  itself, immune to runner speed.

The deterministic figures go to ``results/swarm.txt``.  Wall-clock and
memory are the perf ledger's (``BENCHMARK.json``: ``swarm_idle``'s
``wall_us_per_step`` and ``peak_rss_mb``), and ``repro-cli profile``
gives the per-function view.
"""

from __future__ import annotations

from repro.apps import make_poisson_app
from repro.experiments.config import (
    EXPERIMENT_CONFIG,
    EXPERIMENT_LINK_SCALE,
    optimal_overlap,
)
from repro.experiments.report import format_table
from repro.p2p import build_cluster, launch_application

SWARM_DAEMONS = 10_500

#: the swarm topology: 32 leaf Super-Peers under fanout-8 interior tiers
#: (tier sizes 32 / 4 / 1 — ~330 Daemons per leaf Register)
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
MIN_COLLAPSE_RATIO = 2.2


def _run_swarm():
    """One application run on the swarm, mirroring
    :func:`repro.experiments.driver.execute_spec` (assembled by hand so
    the kernel's event counter and the wheel stats stay reachable)."""
    cluster = build_cluster(
        n_daemons=SWARM_DAEMONS,
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
    sim.run(until=sim.any_of([spawner.done,
                              sim.timeout(APP_KW["horizon"])]))
    return cluster, spawner


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


def test_swarm_scale(record_table):
    cluster, spawner = _run_swarm()
    assert spawner.done.triggered, (
        f"{SWARM_DAEMONS}-Daemon swarm run did not converge within "
        f"{APP_KW['horizon']} simulated seconds"
    )
    assert len(cluster.daemons) >= 10_000, "the swarm must be swarm-scale"

    events_process = _idle_events("process")
    events_wheel = _idle_events("wheel")
    collapse = events_process / events_wheel

    sim, wheel = cluster.sim, cluster.wheel
    record_table("swarm", format_table(
        ["quantity", "value"],
        [
            ["daemons", len(cluster.daemons)],
            ["super-peers (32 / 4 / 1 tiers)", len(cluster.superpeers)],
            ["simulated time (s)", spawner.execution_time],
            ["kernel events", sim.event_count],
            ["wheel timers fired", wheel.timers_fired],
            [f"idle events, process mode ({RATIO_DAEMONS})", events_process],
            [f"idle events, wheel mode ({RATIO_DAEMONS})", events_wheel],
            ["heartbeat collapse ratio", collapse],
        ],
        title=f"swarm: n={APP_KW['n']}, {APP_KW['peers']} peers, "
              f"seed {APP_KW['seed']}, wheel-mode heartbeats",
    ))

    # the wheel must actually collapse heartbeat cost
    assert collapse >= MIN_COLLAPSE_RATIO, (
        f"timer wheel no longer collapses heartbeat cost: process-mode "
        f"events / wheel-mode events = {collapse:.2f} < {MIN_COLLAPSE_RATIO}"
    )
