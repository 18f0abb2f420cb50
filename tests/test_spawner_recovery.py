"""Tests for Spawner fault tolerance — the paper's §4.2 future work.

"The Spawner is the only entity of the system to be stable.  In future
work, we plan to study how to make it tolerant to failures."

The extension is the warm standby (:mod:`repro.p2p.standby`): it shadows
the primary's Application Register over gossip, and when the spawner
machine dies for good it boots a replacement Spawner from the shadow
(``Spawner(resume_from=...)``) under a higher reign.  The surviving
Daemons adopt the replacement, the convergence array refills from their
heartbeat piggybacks, and the application completes correctly.
"""

import pytest

from repro.apps import make_poisson_app
from repro.numerics import Poisson2D
from repro.checkpoint import FixedPolicy
from repro.p2p import (
    P2PConfig,
    Spawner,
    build_cluster,
    launch_application,
    launch_standby,
)
from repro.p2p.messages import ApplicationRegister

from tests.helpers import (
    assemble_strip_solution,
    make_geometric_app,
    run_until_done,
)

FAST = P2PConfig(
    heartbeat_period=0.5, heartbeat_timeout=2.0, monitor_period=0.5,
    call_timeout=2.0, bootstrap_retry_delay=0.5,
    min_iteration_time=0.01,
    gossip_enabled=True, standby_enabled=True,
)
CKPT = FixedPolicy(count=3, frequency=5)


def _launch(cluster, app):
    primary = launch_application(cluster, app)
    return primary, launch_standby(cluster, app, primary)


def test_resume_rejects_mismatched_app():
    cluster = build_cluster(n_daemons=3, n_superpeers=1, seed=96, config=FAST, checkpoint=CKPT)
    with pytest.raises(ValueError, match="does not match"):
        Spawner(
            network=cluster.network,
            host=cluster.testbed.spawner_host,
            app=make_geometric_app(num_tasks=2),
            superpeer_addresses=cluster.superpeer_addresses,
            config=cluster.config,
            rng=cluster.rng.child("spawner"),
            telemetry=cluster.telemetry,
            resume_from=ApplicationRegister.empty("geo", 5),
        )


def test_spawner_failure_and_resume_completes_application():
    """The headline scenario: the spawner machine dies mid-run for good,
    and the promoted standby finishes the job with the surviving daemons."""
    n, peers = 16, 3
    cluster = build_cluster(n_daemons=7, n_superpeers=2, seed=97, config=FAST, checkpoint=CKPT)
    app = make_poisson_app("p", n=n, num_tasks=peers,
                           convergence_threshold=1e-8)
    spawner, standby = _launch(cluster, app)
    sim = cluster.sim
    sim.run(until=1.0)
    assert spawner.register.assigned_count() == peers

    cluster.testbed.spawner_host.fail(cause="spawner-crash")
    assert run_until_done(cluster, standby, horizon=900.0)
    replacement = standby.spawner
    assert replacement.resumed and replacement.reign > spawner.reign

    proc = sim.process(replacement.collect_solution())
    sim.run(until=proc)
    x = assemble_strip_solution(proc.value, n * n)
    assert Poisson2D.manufactured(n).residual_norm(x) < 1e-4
    # the original spawner object never finished; the replacement did
    assert not spawner.done.triggered


def test_resumed_spawner_keeps_the_run_clock():
    """Only the first launch stamps ``launched_at``: the promoted standby's
    Spawner reports the run's execution time from the original launch,
    not from its own boot."""
    from repro.experiments.config import EXPERIMENT_CONFIG, EXPERIMENT_LINK_SCALE

    cluster = build_cluster(n_daemons=8, n_superpeers=2, seed=3,
                            config=EXPERIMENT_CONFIG.with_(
                                gossip_enabled=True, standby_enabled=True),
                            link_scale=EXPERIMENT_LINK_SCALE)
    sim = cluster.sim
    sim.run(until=0.05)
    app = make_poisson_app("p", n=32, num_tasks=4)
    _, standby = _launch(cluster, app)
    sim.run(until=0.3)
    cluster.testbed.spawner_host.fail(cause="spawner-crash")
    sim.run(until=standby.done)
    telemetry = cluster.telemetry
    assert telemetry.launched_at == 0.05
    assert telemetry.converged_at == sim.now > standby.takeover_at > 0.3
    assert standby.spawner.execution_time == sim.now - 0.05


def test_resumed_spawner_replaces_daemons_that_died_during_outage():
    """A computing daemon AND the spawner both fail; after the takeover
    the promoted spawner detects the silent slot and repairs it."""
    n, peers = 16, 3
    cluster = build_cluster(n_daemons=8, n_superpeers=2, seed=101, config=FAST, checkpoint=CKPT)
    app = make_poisson_app("p", n=n, num_tasks=peers,
                           convergence_threshold=1e-8)
    spawner, standby = _launch(cluster, app)
    sim = cluster.sim
    sim.run(until=1.0)
    victim_name = spawner.register.slot(1).daemon_id.rsplit("#", 1)[0]
    victim = next(h for h in cluster.testbed.daemon_hosts
                  if h.name == victim_name)

    cluster.testbed.spawner_host.fail(cause="spawner-crash")
    sim.run(until=2.0)
    victim.fail(cause="double-trouble")  # dies while nobody is watching
    assert not standby.promoted
    assert run_until_done(cluster, standby, horizon=900.0)
    replacement = standby.spawner
    assert replacement.replacements >= 1  # the dead slot was repaired
    proc = sim.process(replacement.collect_solution())
    sim.run(until=proc)
    x = assemble_strip_solution(proc.value, n * n)
    assert Poisson2D.manufactured(n).residual_norm(x) < 1e-4


def test_resume_preserves_epoch_fencing():
    """Epochs carried through the standby's shadow keep increasing, so a
    zombie from before the crash is still fenced after the takeover."""
    cluster = build_cluster(n_daemons=6, n_superpeers=2, seed=103, config=FAST, checkpoint=CKPT)
    app = make_geometric_app(num_tasks=2, rate=0.9999, threshold=1e-12,
                             flops=3e6)
    spawner, standby = _launch(cluster, app)
    sim = cluster.sim
    sim.run(until=2.0)
    epochs_before = [s.epoch for s in spawner.register.slots]
    cluster.testbed.spawner_host.fail(cause="crash")
    sim.run(until=12.0)
    assert standby.promoted and not standby.done.triggered
    replacement = standby.spawner
    for before, slot in zip(epochs_before, replacement.register.slots):
        assert slot.epoch >= before
    # stale-epoch messages are still rejected by the replacement
    replacement.set_state("geo", 0, 0, True)
    assert not replacement.tracker.states[0] or (
        replacement.register.slot(0).epoch == 0
    )
