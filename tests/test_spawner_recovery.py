"""Tests for Spawner fault tolerance — the paper's §4.2 future work.

"The Spawner is the only entity of the system to be stable.  In future
work, we plan to study how to make it tolerant to failures."

The extension: the Spawner persists its Application Register to stable
storage; after the spawner machine fails and recovers, a replacement
Spawner resumes from the snapshot, the surviving Daemons' heartbeats reach
it unchanged (same address), the convergence array refills from the
heartbeat piggybacks, and the application completes correctly.
"""

import pytest

from repro.apps import make_poisson_app
from repro.numerics import Poisson2D
from repro.checkpoint import FixedPolicy
from repro.p2p import (
    P2PConfig,
    StableStore,
    build_cluster,
    launch_application,
    resume_application,
)

from tests.helpers import (
    assemble_strip_solution,
    make_geometric_app,
    run_until_done,
)

FAST = P2PConfig(
    heartbeat_period=0.5, heartbeat_timeout=2.0, monitor_period=0.5,
    call_timeout=2.0, bootstrap_retry_delay=0.5,
    min_iteration_time=0.01,
)
CKPT = FixedPolicy(count=3, frequency=5)


def test_stable_store_snapshot_isolation():
    from repro.p2p.messages import ApplicationRegister

    store = StableStore()
    reg = ApplicationRegister.empty("app", 2)
    store.save("app", reg, spawner_port=4200, now=1.0)
    reg.version = 99  # later mutation must not leak into the store
    snap = store.load("app")
    assert snap.register.version == 0
    assert snap.spawner_port == 4200
    assert "app" in store
    store.forget("app")
    assert store.load("app") is None


def test_resume_requires_a_snapshot():
    cluster = build_cluster(n_daemons=3, n_superpeers=1, seed=95, config=FAST, checkpoint=CKPT)
    with pytest.raises(ValueError, match="no stable snapshot"):
        resume_application(cluster, make_geometric_app(num_tasks=2),
                           StableStore())


def test_resume_rejects_mismatched_app():
    from repro.p2p.messages import ApplicationRegister

    store = StableStore()
    store.save("geo", ApplicationRegister.empty("geo", 5), 4200, 0.0)
    cluster = build_cluster(n_daemons=3, n_superpeers=1, seed=96, config=FAST, checkpoint=CKPT)
    with pytest.raises(ValueError, match="does not match"):
        resume_application(cluster, make_geometric_app(num_tasks=2), store)


def test_spawner_failure_and_resume_completes_application():
    """The headline scenario: spawner machine dies mid-run, comes back,
    the resumed Spawner finishes the job with the surviving daemons."""
    n, peers = 16, 3
    cluster = build_cluster(n_daemons=7, n_superpeers=2, seed=97, config=FAST, checkpoint=CKPT)
    store = StableStore()
    app = make_poisson_app("p", n=n, num_tasks=peers,
                           convergence_threshold=1e-8)
    spawner = launch_application(cluster, app, stable_store=store)
    sim = cluster.sim
    sim.run(until=1.0)
    assert spawner.register.assigned_count() == peers
    assert store.saves >= 1

    spawner_host = cluster.testbed.spawner_host
    spawner_host.fail(cause="spawner-crash")
    sim.run(until=4.0)  # daemons keep computing into the void
    assert not spawner.done.triggered
    spawner_host.recover()
    replacement = resume_application(cluster, app, store)
    assert replacement.resumed
    assert run_until_done(cluster, replacement, horizon=900.0)

    proc = sim.process(replacement.collect_solution())
    sim.run(until=proc)
    x = assemble_strip_solution(proc.value, n * n)
    assert Poisson2D.manufactured(n).residual_norm(x) < 1e-4
    # the original spawner object never finished; the replacement did
    assert not spawner.done.triggered
    # completion cleaned the snapshot up
    assert store.load("p") is None


def test_resumed_spawner_keeps_the_run_clock():
    """Only the first launch stamps ``launched_at``: a Spawner resumed from
    stable storage reports the run's execution time from the original
    launch, not from its own boot."""
    from repro.experiments.config import EXPERIMENT_CONFIG, EXPERIMENT_LINK_SCALE

    cluster = build_cluster(n_daemons=8, n_superpeers=2, seed=3,
                            config=EXPERIMENT_CONFIG,
                            link_scale=EXPERIMENT_LINK_SCALE)
    sim = cluster.sim
    sim.run(until=0.05)
    store = StableStore()
    app = make_poisson_app("p", n=32, num_tasks=4)
    launch_application(cluster, app, stable_store=store)
    sim.run(until=0.3)
    cluster.testbed.spawner_host.fail(cause="spawner-crash")
    sim.run(until=0.8)
    cluster.testbed.spawner_host.recover()
    replacement = resume_application(cluster, app, store)
    sim.run(until=replacement.done)
    telemetry = cluster.telemetry
    assert telemetry.launched_at == 0.05
    assert telemetry.converged_at == sim.now > 0.8
    assert replacement.execution_time == sim.now - 0.05


def test_resumed_spawner_replaces_daemons_that_died_during_outage():
    """A computing daemon AND the spawner both fail; after resume the
    replacement spawner detects the silent slot and repairs it."""
    n, peers = 16, 3
    cluster = build_cluster(n_daemons=8, n_superpeers=2, seed=101, config=FAST, checkpoint=CKPT)
    store = StableStore()
    app = make_poisson_app("p", n=n, num_tasks=peers,
                           convergence_threshold=1e-8)
    spawner = launch_application(cluster, app, stable_store=store)
    sim = cluster.sim
    sim.run(until=1.0)
    victim_name = spawner.register.slot(1).daemon_id.rsplit("#", 1)[0]
    victim = next(h for h in cluster.testbed.daemon_hosts
                  if h.name == victim_name)

    cluster.testbed.spawner_host.fail(cause="spawner-crash")
    sim.run(until=2.0)
    victim.fail(cause="double-trouble")  # dies while nobody is watching
    sim.run(until=4.0)
    cluster.testbed.spawner_host.recover()
    replacement = resume_application(cluster, app, store)
    assert run_until_done(cluster, replacement, horizon=900.0)
    assert replacement.replacements >= 1  # the dead slot was repaired
    proc = sim.process(replacement.collect_solution())
    sim.run(until=proc)
    x = assemble_strip_solution(proc.value, n * n)
    assert Poisson2D.manufactured(n).residual_norm(x) < 1e-4


def test_resume_preserves_epoch_fencing():
    """Epochs carried through stable storage keep increasing, so a zombie
    from before the crash is still fenced after the resume."""
    cluster = build_cluster(n_daemons=6, n_superpeers=2, seed=103, config=FAST, checkpoint=CKPT)
    store = StableStore()
    app = make_geometric_app(num_tasks=2, rate=0.9999, threshold=1e-12,
                             flops=3e6)
    spawner = launch_application(cluster, app, stable_store=store)
    sim = cluster.sim
    sim.run(until=2.0)
    epochs_before = [s.epoch for s in spawner.register.slots]
    cluster.testbed.spawner_host.fail(cause="crash")
    sim.run(until=3.0)
    cluster.testbed.spawner_host.recover()
    replacement = resume_application(cluster, app, store)
    sim.run(until=6.0)
    for before, slot in zip(epochs_before, replacement.register.slots):
        assert slot.epoch >= before
    # stale-epoch messages are still rejected by the replacement
    replacement.set_state("geo", 0, 0, True)
    assert not replacement.tracker.states[0] or (
        replacement.register.slot(0).epoch == 0
    )
