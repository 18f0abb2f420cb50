"""Tests for register dissemination: delta broadcasts (§8)."""

from repro.apps import make_poisson_app
from repro.numerics import Poisson2D
from repro.checkpoint import FixedPolicy
from repro.p2p import P2PConfig, build_cluster, launch_application
from repro.p2p.messages import ApplicationRegister, RegisterDelta, TaskSlot

from tests.helpers import (
    assemble_strip_solution,
    collect_solution,
    make_geometric_app,
    run_until_done,
)

FAST = P2PConfig(
    heartbeat_period=0.5, heartbeat_timeout=2.0, monitor_period=0.5,
    call_timeout=2.0, bootstrap_retry_delay=0.5,
    min_iteration_time=0.01,
)
CKPT = FixedPolicy(count=3, frequency=5)


def run_with_failure(seed: int = 51):
    cluster = build_cluster(
        n_daemons=8, n_superpeers=2, seed=seed,
        config=FAST,
        checkpoint=CKPT,
    )
    app = make_poisson_app("p", n=16, num_tasks=4, convergence_threshold=1e-8)
    spawner = launch_application(cluster, app)
    sim = cluster.sim
    sim.run(until=1.0)
    victim_name = spawner.register.slot(2).daemon_id.rsplit("#", 1)[0]
    victim = next(h for h in cluster.testbed.daemon_hosts
                  if h.name == victim_name)
    victim.fail(cause="test")
    assert run_until_done(cluster, spawner, horizon=900.0)
    frags = collect_solution(cluster, spawner)
    x = assemble_strip_solution(frags, 256)
    residual = Poisson2D.manufactured(16).residual_norm(x)
    return cluster, spawner, residual


def test_delta_mode_converges_correctly_under_failure():
    cluster, spawner, residual = run_with_failure()
    assert residual < 1e-4
    assert spawner.replacements == 1


def test_delta_apply_in_sequence():
    """Unit-level: a daemon applies consecutive deltas and ignores stale
    or already-seen ones."""
    from repro.net.address import Address
    from repro.rmi import Stub

    reg = ApplicationRegister.empty("app", 3)
    reg.version = 5

    class FakeRunner:
        app_id = "app"
        register = reg
        spawner_stub = Stub("spawner", Address("s", 4200))

    class FakeDaemon:
        runner = FakeRunner()
        _resyncing = False

        def __getattr__(self, name):
            raise AssertionError(f"unexpected daemon access: {name}")

    from repro.p2p.daemon import Daemon

    daemon = FakeDaemon()
    new_slot = TaskSlot(1, "dX", Stub("daemon", Address("h", 4100)), epoch=2)
    delta = RegisterDelta("app", from_version=5, to_version=6,
                          changes=[new_slot])
    assert Daemon.update_register_delta(daemon, delta) is True
    assert reg.version == 6
    assert reg.slot(1).daemon_id == "dX"
    # replay of the same delta: harmless no-op
    assert Daemon.update_register_delta(daemon, delta) is True
    assert reg.version == 6
    # wrong app: rejected
    foreign = RegisterDelta("other", 6, 7, [])
    assert Daemon.update_register_delta(daemon, foreign) is False


def test_delta_gap_triggers_resync_on_live_cluster():
    """Force a version gap by injecting a far-future delta: the daemon
    must pull a full snapshot rather than apply it."""
    cluster = build_cluster(
        n_daemons=5, n_superpeers=2, seed=53,
        config=FAST,
        checkpoint=CKPT,
    )
    app = make_geometric_app(num_tasks=3, rate=0.9999, threshold=1e-12,
                             flops=3e6)
    spawner = launch_application(cluster, app)
    sim = cluster.sim
    sim.run(until=2.0)
    slot = spawner.register.slot(0)
    daemon_host = slot.daemon_id.rsplit("#", 1)[0]
    daemon = cluster.daemons[daemon_host]
    # a delta whose base version the daemon never saw
    gap = RegisterDelta(app.app_id, from_version=40, to_version=41, changes=[])
    assert daemon.update_register_delta(gap) is False
    sim.run(until=sim.now + 3.0)
    assert spawner.resyncs_served >= 1
    assert daemon.runner.register.version == spawner.register.version
