"""Tests for the JaceV-style centralized baseline topology."""

import pytest

from repro.baselines import build_centralized_cluster
from repro.checkpoint import FixedPolicy
from repro.p2p import P2PConfig, build_cluster, launch_application

from tests.helpers import make_geometric_app, run_until_done

FAST = P2PConfig(
    heartbeat_period=0.5,
    heartbeat_timeout=2.0,
    monitor_period=0.5,
    call_timeout=2.0,
    bootstrap_retry_delay=0.5,
    min_iteration_time=0.01,
)
CKPT = FixedPolicy(count=2, frequency=5)


def test_centralized_cluster_runs_an_app():
    cluster = build_centralized_cluster(n_daemons=5, seed=3, config=FAST, checkpoint=CKPT)
    spawner = launch_application(cluster, make_geometric_app(num_tasks=3))
    assert run_until_done(cluster, spawner, horizon=120.0)
    assert len(cluster.superpeers) == 1
    assert cluster.superpeers[0].sp_id == "CENTRAL"


def test_central_server_handles_every_heartbeat():
    """The §2.2 bottleneck: one server carries the whole population's
    registry traffic; the hybrid topology spreads it."""
    pop = 12
    central = build_centralized_cluster(n_daemons=pop, seed=5, config=FAST, checkpoint=CKPT)
    central.sim.run(until=10.0)
    central_load = central.superpeers[0].runtime.served

    hybrid = build_cluster(n_daemons=pop, n_superpeers=3, seed=5, config=FAST, checkpoint=CKPT)
    hybrid.sim.run(until=10.0)
    loads = [sp.runtime.served for sp in hybrid.superpeers]
    assert central.registered_daemons() == pop
    assert hybrid.registered_daemons() == pop
    # every hybrid super-peer carries strictly less than the central server
    assert all(load < central_load for load in loads)
    assert sum(loads) == pytest.approx(central_load, rel=0.3)


def test_central_server_failure_kills_the_platform():
    """The single point of failure: after the central machine dies, the
    application can never finish and daemons cannot re-register."""
    cluster = build_centralized_cluster(n_daemons=6, seed=7, config=FAST, checkpoint=CKPT)
    app = make_geometric_app(num_tasks=3, rate=0.9999, threshold=1e-12,
                             flops=3e6)
    spawner = launch_application(cluster, app)
    sim = cluster.sim
    sim.run(until=3.0)
    assert spawner.register.assigned_count() == 3

    central_host = cluster.testbed.spawner_host
    central_host.fail(cause="central-failure")
    # ... and even bring the machine back: the Spawner's in-memory state
    # (register, convergence array) is gone with the process
    sim.run(until=10.0)
    central_host.recover()
    sim.run(until=60.0)
    assert not spawner.done.triggered
    # idle daemons are stuck: their bootstrap list has only the dead server
    # (a recovered host runs no registry process in JaceV-without-restart)
    assert all(not d.registered for d in cluster.daemons.values()
               if d.runner is None)


def test_hybrid_topology_survives_what_kills_centralized():
    """Contrast case: the same failure pattern against JaceP2P's hybrid
    topology — another Super-Peer takes over (§5.3)."""
    cluster = build_cluster(n_daemons=6, n_superpeers=3, seed=7, config=FAST, checkpoint=CKPT)
    app = make_geometric_app(num_tasks=3)
    spawner = launch_application(cluster, app)
    sim = cluster.sim
    sim.run(until=2.0)
    cluster.superpeers[0].host.fail(cause="sp-failure")
    assert run_until_done(cluster, spawner, horizon=120.0)
