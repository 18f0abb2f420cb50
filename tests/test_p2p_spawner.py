"""Spawner-focused tests: reservation, register broadcast, epoch filtering,
failure detection timing, convergence protocol (paper §5.2, §5.3, §5.5)."""

import pytest

from repro.checkpoint import FixedPolicy
from repro.p2p import P2PConfig, build_cluster, launch_application
from repro.p2p.messages import AppSpec, ApplicationRegister

from tests.helpers import GeometricTask, make_geometric_app, run_until_done

FAST = P2PConfig(
    heartbeat_period=0.5,
    heartbeat_timeout=2.0,
    monitor_period=0.5,
    call_timeout=2.0,
    bootstrap_retry_delay=0.5,
    min_iteration_time=0.01,
)
CKPT = FixedPolicy(count=2, frequency=5)


# ----------------------------------------------------------- register object


def test_application_register_empty_and_accessors():
    reg = ApplicationRegister.empty("app", 3)
    assert reg.num_tasks == 3
    assert reg.assigned_count() == 0
    assert reg.stub_of(1) is None
    assert not reg.slot(2).assigned


def test_application_register_snapshot_is_independent():
    reg = ApplicationRegister.empty("app", 2)
    snap = reg.snapshot()
    snap.slot(0).daemon_id = "x"
    snap.version = 9
    assert reg.slot(0).daemon_id is None
    assert reg.version == 0


def test_app_spec_validation():
    with pytest.raises(ValueError):
        AppSpec(app_id="", task_factory=GeometricTask, num_tasks=1)
    with pytest.raises(ValueError):
        AppSpec(app_id="a", task_factory=GeometricTask, num_tasks=0)


# ------------------------------------------------------------------ spawner


def test_spawner_assigns_all_slots_then_converges():
    cluster = build_cluster(n_daemons=5, n_superpeers=2, seed=71, config=FAST, checkpoint=CKPT)
    app = make_geometric_app(num_tasks=4, rate=0.999, threshold=1e-9, flops=3e6)
    spawner = launch_application(cluster, app)
    # allow the heartbeat-timeout eviction of any stale register entries
    cluster.sim.run(until=6.0)
    assert spawner.register.assigned_count() == 4
    # reserved daemons left the super-peer registers; only the spare remains
    assert cluster.registered_daemons() == 1
    assert run_until_done(cluster, spawner, horizon=300.0)


def test_spawner_reservation_spans_superpeers():
    """More tasks than any single Super-Peer has registered."""
    cluster = build_cluster(n_daemons=6, n_superpeers=3, seed=73, config=FAST, checkpoint=CKPT)
    cluster.sim.run(until=2.0)  # let daemons spread over the super-peers
    per_sp = [len(sp.register) for sp in cluster.superpeers]
    spawner = launch_application(cluster, make_geometric_app(num_tasks=6))
    assert run_until_done(cluster, spawner, horizon=120.0)
    if max(per_sp) < 6:  # the reservation had to be forwarded
        assert sum(sp.forwarded_requests for sp in cluster.superpeers) > 0


def test_spawner_detects_failure_within_timeout_window():
    cluster = build_cluster(n_daemons=6, n_superpeers=2, seed=79, config=FAST, checkpoint=CKPT)
    app = make_geometric_app(num_tasks=3, rate=0.9999, threshold=1e-12, flops=3e6)
    spawner = launch_application(cluster, app)
    sim = cluster.sim
    sim.run(until=2.0)
    victim_name = spawner.register.slot(1).daemon_id.rsplit("#", 1)[0]
    victim = next(h for h in cluster.testbed.daemon_hosts if h.name == victim_name)
    fail_at = sim.now
    victim.fail(cause="test")
    while spawner.failures_detected == 0 and sim.now < fail_at + 30:
        sim.run(until=sim.now + 0.25)
    detection_delay = sim.now - fail_at
    assert spawner.failures_detected == 1
    # detected within timeout + one monitor period + slack
    assert detection_delay <= FAST.heartbeat_timeout + 2 * FAST.monitor_period + 0.5


def test_spawner_broadcasts_register_on_membership_change():
    cluster = build_cluster(n_daemons=6, n_superpeers=2, seed=83, config=FAST, checkpoint=CKPT)
    app = make_geometric_app(num_tasks=3, rate=0.9999, threshold=1e-12, flops=3e6)
    spawner = launch_application(cluster, app)
    sim = cluster.sim
    sim.run(until=2.0)
    initial_broadcasts = spawner.register_broadcasts
    initial_version = spawner.register.version
    victim_name = spawner.register.slot(0).daemon_id.rsplit("#", 1)[0]
    next(h for h in cluster.testbed.daemon_hosts if h.name == victim_name).fail()
    sim.run(until=sim.now + 10.0)
    assert spawner.register_broadcasts > initial_broadcasts
    assert spawner.register.version > initial_version
    # surviving daemons adopted the newer register
    for slot in spawner.register.slots:
        if slot.assigned:
            host = next(h for h in cluster.testbed.daemon_hosts
                        if h.name == slot.daemon_id.rsplit("#", 1)[0])
            daemon = cluster.daemons[host.name]
            if daemon.runner is not None:
                assert daemon.runner.register.version == spawner.register.version


def test_spawner_epoch_filter_ignores_stale_messages():
    cluster = build_cluster(n_daemons=4, n_superpeers=1, seed=89, config=FAST, checkpoint=CKPT)
    app = make_geometric_app(num_tasks=2, rate=0.9999, threshold=1e-12, flops=3e6)
    spawner = launch_application(cluster, app)
    cluster.sim.run(until=2.0)
    slot = spawner.register.slot(0)
    # a message from a previous epoch must be ignored
    spawner.set_state("geo", 0, slot.epoch - 1, True)
    assert not spawner.tracker.states[0]
    seen = spawner.last_seen[0]
    version = spawner.register.version
    spawner.heartbeat_task("geo", 0, slot.epoch - 1, "zombie", slot.daemon_stub,
                           False, version)
    # and one from the current epoch but wrong daemon id too
    spawner.heartbeat_task("geo", 0, slot.epoch, "zombie", slot.daemon_stub,
                           False, version)
    assert spawner.last_seen[0] == seen
    spawner.heartbeat_task("geo", 0, slot.epoch, slot.daemon_id,
                           slot.daemon_stub, False, version)
    assert spawner.last_seen[0] >= seen


def test_stale_beat_draws_one_fence_that_spares_a_reassigned_daemon():
    """A stale-epoch beat is answered with exactly one fence keyed by the
    slot's epoch.  Arriving late at a Daemon that has since been assigned
    the slot's current epoch, it must not halt that legitimate runner."""
    from repro.obs import Tracer

    tracer = Tracer()
    cluster = build_cluster(n_daemons=4, n_superpeers=1, seed=89, config=FAST,
                            checkpoint=CKPT, tracer=tracer)
    app = make_geometric_app(num_tasks=2, rate=0.9999, threshold=1e-12, flops=3e6)
    spawner = launch_application(cluster, app)
    sim = cluster.sim
    sim.run(until=2.0)
    slot = spawner.register.slot(0)
    daemon = cluster.daemons[slot.daemon_id.rsplit("#", 1)[0]]
    runner = daemon.runner
    assert runner is not None and runner.epoch == slot.epoch
    spawner.heartbeat_task("geo", 0, slot.epoch - 1, slot.daemon_id,
                           slot.daemon_stub, False, spawner.register.version)
    assert tracer.count("p2p", "fence") == 1
    sim.run(until=sim.now + 1.0)
    assert tracer.count("p2p", "fence") == 1  # live beats draw none
    assert daemon.runner is runner and not runner.halted
    assert tracer.count("p2p", "fenced") == 0


def test_spawner_ignores_foreign_app_messages():
    cluster = build_cluster(n_daemons=4, n_superpeers=1, seed=97, config=FAST, checkpoint=CKPT)
    app = make_geometric_app(num_tasks=2, rate=0.9999, threshold=1e-12, flops=3e6)
    spawner = launch_application(cluster, app)
    cluster.sim.run(until=2.0)
    spawner.set_state("other-app", 0, 1, True)
    assert not spawner.tracker.states[0]
    spawner.set_state("geo", 99, 1, True)  # out-of-range task id
    assert not spawner.tracker.converged


def test_spawner_replacement_counter_and_epochs():
    cluster = build_cluster(n_daemons=8, n_superpeers=2, seed=101, config=FAST, checkpoint=CKPT)
    app = make_geometric_app(num_tasks=3, rate=0.9999, threshold=1e-12, flops=3e6)
    spawner = launch_application(cluster, app)
    sim = cluster.sim
    sim.run(until=2.0)
    victim_name = spawner.register.slot(2).daemon_id.rsplit("#", 1)[0]
    next(h for h in cluster.testbed.daemon_hosts if h.name == victim_name).fail()
    sim.run(until=sim.now + 15.0)
    assert spawner.replacements == 1
    assert spawner.register.slot(2).epoch == 2
    assert spawner.register.slot(2).assigned


def test_set_state_after_done_is_ignored():
    cluster = build_cluster(n_daemons=4, n_superpeers=1, seed=103, config=FAST, checkpoint=CKPT)
    spawner = launch_application(cluster, make_geometric_app(num_tasks=2))
    assert run_until_done(cluster, spawner, horizon=120.0)
    msgs = spawner.tracker.messages_received
    spawner.set_state("geo", 0, spawner.register.slot(0).epoch, False)
    assert spawner.tracker.messages_received == msgs
