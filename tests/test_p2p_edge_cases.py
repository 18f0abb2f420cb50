"""Edge-case tests for the runtime: degenerate populations, dead-end
collections, idle-daemon control messages, incarnation bookkeeping."""

import pytest

from repro.checkpoint import FixedPolicy
from repro.p2p import P2PConfig, build_cluster, launch_application

from tests.helpers import (
    collect_solution,
    make_geometric_app,
    run_until_done,
)

FAST = P2PConfig(
    heartbeat_period=0.5, heartbeat_timeout=2.0, monitor_period=0.5,
    call_timeout=2.0, bootstrap_retry_delay=0.5,
    min_iteration_time=0.01,
)
CKPT = FixedPolicy(count=2, frequency=5)


def test_application_larger_than_population_waits_forever():
    """4 tasks, 2 daemons: the app can never fully launch; the maintenance
    loop keeps retrying without crashing or spinning the simulation hot."""
    cluster = build_cluster(n_daemons=2, n_superpeers=1, seed=81, config=FAST, checkpoint=CKPT)
    spawner = launch_application(cluster, make_geometric_app(num_tasks=4))
    cluster.sim.run(until=30.0)
    assert not spawner.done.triggered
    assert spawner.register.assigned_count() == 2
    # bounded event rate: the retry loop must not be a busy-spin
    assert cluster.sim.event_count < 200_000


def test_collect_solution_with_dead_fragment_returns_none():
    cluster = build_cluster(n_daemons=5, n_superpeers=1, seed=83, config=FAST, checkpoint=CKPT)
    app = make_geometric_app(num_tasks=3)
    spawner = launch_application(cluster, app)
    assert run_until_done(cluster, spawner, horizon=120.0)
    # kill one computing host right after convergence, before collection
    victim_name = spawner.register.slot(1).daemon_id.rsplit("#", 1)[0]
    victim = next(h for h in cluster.testbed.daemon_hosts
                  if h.name == victim_name)
    victim.fail(cause="post-convergence")
    frags = collect_solution(cluster, spawner)
    assert frags[1] is None
    assert frags[0] is not None and frags[2] is not None


def test_halt_for_unknown_app_is_harmless():
    cluster = build_cluster(n_daemons=3, n_superpeers=1, seed=85, config=FAST, checkpoint=CKPT)
    spawner = launch_application(cluster, make_geometric_app(num_tasks=2))
    sim = cluster.sim
    sim.run(until=2.0)
    some_daemon = next(iter(cluster.daemons.values()))
    assert some_daemon.halt("no-such-app") is True  # idempotent no-op
    assert run_until_done(cluster, spawner, horizon=120.0)


def test_daemon_incarnations_count_up_per_host():
    cluster = build_cluster(n_daemons=2, n_superpeers=1, seed=87, config=FAST, checkpoint=CKPT)
    sim = cluster.sim
    sim.run(until=1.0)
    host = cluster.testbed.daemon_hosts[0]
    first = cluster.daemons[host.name]
    assert first.daemon_id.endswith("#1")
    host.fail(cause="test")
    sim.run(until=2.0)
    host.recover()
    sim.run(until=3.0)
    second = cluster.daemons[host.name]
    assert second is not first
    assert second.daemon_id.endswith("#2")
    host.fail(cause="again")
    sim.run(until=4.0)
    host.recover()
    sim.run(until=5.0)
    assert cluster.daemons[host.name].daemon_id.endswith("#3")


def test_superpeer_count_one_still_works():
    cluster = build_cluster(n_daemons=4, n_superpeers=1, seed=89, config=FAST, checkpoint=CKPT)
    spawner = launch_application(cluster, make_geometric_app(num_tasks=3))
    assert run_until_done(cluster, spawner, horizon=120.0)


def test_spawner_done_value_carries_convergence_time():
    cluster = build_cluster(n_daemons=4, n_superpeers=1, seed=91, config=FAST, checkpoint=CKPT)
    spawner = launch_application(cluster, make_geometric_app(num_tasks=2))
    assert run_until_done(cluster, spawner, horizon=120.0)
    assert spawner.done.value["converged_at"] == pytest.approx(
        spawner.telemetry.converged_at
    )


def test_cluster_handle_accessors():
    cluster = build_cluster(n_daemons=3, n_superpeers=2, seed=93, config=FAST, checkpoint=CKPT)
    assert cluster.network is cluster.testbed.network
    assert len(cluster.superpeer_addresses) == 2
    cluster.sim.run(until=2.0)
    assert cluster.registered_daemons() == 3
