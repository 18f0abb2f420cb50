"""End-to-end integration tests of the full JaceP2P stack.

Each test builds a cluster (Super-Peers + Daemons + Spawner over the
simulated heterogeneous network), launches an application and drives the
simulation — exercising bootstrap, reservation, asynchronous iteration,
checkpointing, failure detection, replacement, rollback recovery and
centralized convergence detection together.
"""

from dataclasses import replace

import numpy as np

from repro.apps import make_heat_app, make_jacobi_app, make_poisson_app
from repro.checkpoint import FixedPolicy
from repro.churn import ChurnEvent, PaperChurn, TraceChurn
from repro.numerics import Poisson2D
from repro.p2p import P2PConfig, build_cluster, launch_application
from repro.util.rng import RngTree

from tests.helpers import (
    assemble_strip_solution,
    churn_injector,
    collect_solution,
    make_geometric_app,
    run_until_done,
)

FAST = P2PConfig(
    heartbeat_period=0.5,
    heartbeat_timeout=2.0,
    monitor_period=0.5,
    call_timeout=2.0,
    bootstrap_retry_delay=0.5,
    min_iteration_time=0.01,
)
CKPT = FixedPolicy(count=3, frequency=5)


def poisson_accuracy(cluster, spawner, n):
    frags = collect_solution(cluster, spawner)
    x = assemble_strip_solution(frags, n * n)
    assert not np.isnan(x).any(), "missing solution fragments"
    return Poisson2D.manufactured(n).residual_norm(x)


# ------------------------------------------------------------------ happy path


def test_geometric_app_converges():
    cluster = build_cluster(n_daemons=4, n_superpeers=2, seed=3, config=FAST, checkpoint=CKPT)
    spawner = launch_application(cluster, make_geometric_app(num_tasks=3))
    assert run_until_done(cluster, spawner, horizon=120.0)
    assert spawner.execution_time is not None
    assert cluster.telemetry.total_iterations > 0
    # after halt, daemons drift back to the idle pool
    cluster.sim.run(until=cluster.sim.now + 10.0)
    assert cluster.registered_daemons() == 4


def test_poisson_app_accuracy_no_churn():
    cluster = build_cluster(n_daemons=5, n_superpeers=2, seed=5, config=FAST, checkpoint=CKPT)
    app = make_poisson_app("poisson", n=16, num_tasks=4, convergence_threshold=1e-8)
    spawner = launch_application(cluster, app)
    assert run_until_done(cluster, spawner, horizon=600.0)
    assert poisson_accuracy(cluster, spawner, 16) < 1e-5


def test_poisson_app_with_overlap_converges():
    cluster = build_cluster(n_daemons=5, n_superpeers=2, seed=6, config=FAST, checkpoint=CKPT)
    app = make_poisson_app(
        "poisson", n=16, num_tasks=4, overlap=1, convergence_threshold=1e-8
    )
    spawner = launch_application(cluster, app)
    assert run_until_done(cluster, spawner, horizon=600.0)
    assert poisson_accuracy(cluster, spawner, 16) < 1e-5


def test_jacobi_app_converges():
    cluster = build_cluster(n_daemons=4, n_superpeers=2, seed=7, config=FAST, checkpoint=CKPT)
    app = replace(make_jacobi_app("jac", n=10, num_tasks=3),
                  convergence_threshold=1e-9)
    spawner = launch_application(cluster, app)
    assert run_until_done(cluster, spawner, horizon=900.0)
    frags = collect_solution(cluster, spawner)
    x = assemble_strip_solution(frags, 100)
    assert Poisson2D.manufactured(10).residual_norm(x) < 1e-4


def test_heat_app_reaches_steady_state():
    cluster = build_cluster(n_daemons=4, n_superpeers=2, seed=8, config=FAST, checkpoint=CKPT)
    app = replace(make_heat_app("heat", n=10, num_tasks=3),
                  convergence_threshold=1e-10)
    spawner = launch_application(cluster, app)
    assert run_until_done(cluster, spawner, horizon=900.0)
    frags = collect_solution(cluster, spawner)
    x = assemble_strip_solution(frags, 100)
    prob = Poisson2D.heat_plate(10)
    assert prob.residual_norm(x) < 1e-3


def test_single_task_application():
    cluster = build_cluster(n_daemons=2, n_superpeers=1, seed=9, config=FAST, checkpoint=CKPT)
    app = make_poisson_app("solo", n=8, num_tasks=1, convergence_threshold=1e-9)
    spawner = launch_application(cluster, app)
    assert run_until_done(cluster, spawner, horizon=300.0)
    assert poisson_accuracy(cluster, spawner, 8) < 1e-6


def test_run_is_deterministic():
    results = []
    for _ in range(2):
        cluster = build_cluster(n_daemons=5, n_superpeers=2, seed=11, config=FAST, checkpoint=CKPT)
        app = make_poisson_app("p", n=12, num_tasks=3, convergence_threshold=1e-7)
        spawner = launch_application(cluster, app)
        assert run_until_done(cluster, spawner, horizon=600.0)
        results.append(
            (spawner.execution_time, cluster.telemetry.total_iterations)
        )
    assert results[0] == results[1]


def test_spawner_waits_for_daemons_to_appear():
    """Launch with too few Daemons; the maintenance loop fills slots as
    machines bootstrap later."""
    cluster = build_cluster(n_daemons=3, n_superpeers=1, seed=13, config=FAST, checkpoint=CKPT)
    # ask for more tasks than daemons initially available
    app = make_geometric_app(num_tasks=3, threshold=1e-3)
    # take one daemon host down before it can be reserved
    victim = cluster.testbed.daemon_hosts[0]
    victim.fail()
    spawner = launch_application(cluster, app)
    cluster.sim.run(until=5.0)
    assert spawner.register.assigned_count() < 3
    victim.recover()  # a fresh daemon boots and registers
    assert run_until_done(cluster, spawner, horizon=120.0)


# ----------------------------------------------------------------------- churn


def test_poisson_survives_disconnections_with_recovery():
    cluster = build_cluster(n_daemons=8, n_superpeers=2, seed=21, config=FAST, checkpoint=CKPT)
    app = make_poisson_app("poisson", n=16, num_tasks=4, convergence_threshold=1e-8)
    spawner = launch_application(cluster, app)
    trace = TraceChurn((
        ChurnEvent(0.4, 5.0, None),
        ChurnEvent(0.9, 5.0, None),
        ChurnEvent(1.5, 5.0, None),
    ))
    inj = churn_injector(cluster.sim, cluster.testbed.daemon_hosts, trace,
                         RngTree(99), horizon=1000.0)
    assert run_until_done(cluster, spawner, horizon=900.0)
    assert len(inj.executed) == 3
    assert poisson_accuracy(cluster, spawner, 16) < 1e-5


def test_churn_slows_execution_but_preserves_result():
    times = {}
    for label, n_disc in [("calm", 0), ("stormy", 4)]:
        cluster = build_cluster(n_daemons=10, n_superpeers=2, seed=31, config=FAST, checkpoint=CKPT)
        app = make_poisson_app("p", n=16, num_tasks=4, convergence_threshold=1e-8)
        spawner = launch_application(cluster, app)
        if n_disc:
            # horizon sized so the churn window (5 %..85 % of it) overlaps
            # the calm run (~2 s now that a reserve sweep accumulates
            # partial grants across Super-Peers instead of under-filling
            # the slots)
            model = PaperChurn(n_disc, reconnect_delay=5.0)
            churn_injector(cluster.sim, cluster.testbed.daemon_hosts, model,
                           RngTree(7), horizon=3.0)
        assert run_until_done(cluster, spawner, horizon=900.0)
        assert poisson_accuracy(cluster, spawner, 16) < 1e-5
        times[label] = spawner.execution_time
    assert times["stormy"] > times["calm"]


def test_recovery_resumes_from_checkpoint_not_zero():
    cluster = build_cluster(n_daemons=8, n_superpeers=2, seed=41, config=FAST, checkpoint=CKPT)
    app = make_poisson_app("p", n=16, num_tasks=4, convergence_threshold=1e-9)
    spawner = launch_application(cluster, app)
    sim = cluster.sim
    # let it iterate well past several checkpoints, then kill a computing host
    sim.run(until=1.0)
    computing_hosts = {
        s.daemon_id.rsplit("#", 1)[0]
        for s in spawner.register.slots if s.assigned
    }
    victim = next(h for h in cluster.testbed.daemon_hosts
                  if h.name in computing_hosts)
    victim.fail(cause="test")
    assert run_until_done(cluster, spawner, horizon=900.0)
    recs = cluster.telemetry.recoveries
    assert len(recs) == 1
    assert not recs[0].from_scratch
    assert recs[0].resumed_iteration > 0
    assert recs[0].resumed_iteration % CKPT.frequency == 0


def test_all_backups_lost_restarts_from_zero():
    """Kill the computing daemon AND all of its backup-peers while the
    application still runs: §5.4 says the task must restart from the
    beginning."""
    cluster = build_cluster(n_daemons=10, n_superpeers=2, seed=43, config=FAST,
                            checkpoint=FixedPolicy(count=1, frequency=2))
    app = make_geometric_app(num_tasks=3, rate=0.9, threshold=1e-7, flops=5e6)
    spawner = launch_application(cluster, app)
    sim = cluster.sim
    sim.run(until=0.5)
    # find hosts of task 1 and its sole backup-peer (task 2), kill both
    hosts_by_task = {
        s.task_id: s.daemon_id.rsplit("#", 1)[0]
        for s in spawner.register.slots if s.assigned
    }
    # the kill lands mid-run: every task is running and none is stable
    # yet, and task 1 has a Backup on its guardian to lose
    assert sorted(hosts_by_task) == [0, 1, 2]
    assert not spawner.done.triggered
    assert spawner.tracker.stable_count == 0
    guardian = cluster.daemons[hosts_by_task[2]]
    assert guardian.backup_store.version_of(app.app_id, 1) is not None
    host_map = {h.name: h for h in cluster.testbed.daemon_hosts}
    host_map[hosts_by_task[2]].fail(cause="test")  # backup-peer first
    host_map[hosts_by_task[1]].fail(cause="test")
    assert run_until_done(cluster, spawner, horizon=600.0)
    scratch = [r for r in cluster.telemetry.recoveries if r.task_id == 1]
    assert scratch and scratch[-1].from_scratch


def test_superpeer_failure_does_not_stop_application():
    cluster = build_cluster(n_daemons=6, n_superpeers=3, seed=47, config=FAST, checkpoint=CKPT)
    app = make_poisson_app("p", n=12, num_tasks=3, convergence_threshold=1e-8)
    spawner = launch_application(cluster, app)
    sim = cluster.sim
    sim.run(until=0.5)
    cluster.superpeers[0].host.fail(cause="test")
    assert run_until_done(cluster, spawner, horizon=600.0)
    assert poisson_accuracy(cluster, spawner, 12) < 1e-5


def test_alive_peers_never_stop_during_failure():
    """The asynchronous property: other peers keep iterating while a failed
    task is being replaced."""
    cluster = build_cluster(n_daemons=8, n_superpeers=2, seed=53, config=FAST, checkpoint=CKPT)
    app = make_geometric_app(num_tasks=4, rate=0.999, threshold=1e-9, flops=3e6)
    spawner = launch_application(cluster, app)
    sim = cluster.sim
    sim.run(until=2.0)
    victim_slot = spawner.register.slot(0)
    victim_host_name = victim_slot.daemon_id.rsplit("#", 1)[0]
    victim = next(h for h in cluster.testbed.daemon_hosts
                  if h.name == victim_host_name)
    before = {t: cluster.telemetry.iterations[t] for t in range(4)}
    victim.fail(cause="test")
    sim.run(until=sim.now + FAST.heartbeat_timeout)  # during detection window
    after = {t: cluster.telemetry.iterations[t] for t in range(4)}
    for t in range(1, 4):
        assert after[t] > before[t], f"task {t} stalled during failure handling"


# ----------------------------------------------------------- multiple apps


def test_two_applications_run_concurrently():
    cluster = build_cluster(n_daemons=8, n_superpeers=2, seed=61, config=FAST, checkpoint=CKPT)
    app1 = make_geometric_app("first", num_tasks=3, threshold=1e-4)
    app2 = make_geometric_app("second", num_tasks=3, threshold=1e-4)
    s1 = launch_application(cluster, app1)
    s2 = launch_application(cluster, app2)
    sim = cluster.sim
    both = sim.all_of([s1.done, s2.done])
    sim.run(until=sim.any_of([both, sim.timeout(300.0)]))
    assert s1.done.triggered and s2.done.triggered
    # distinct daemons served each app
    d1 = {s.daemon_id for s in s1.register.slots}
    d2 = {s.daemon_id for s in s2.register.slots}
    assert d1.isdisjoint(d2)
