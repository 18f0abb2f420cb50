"""Network partitions and live zombies.

The hardest failure-detection case is a peer that is *not* dead: a network
partition makes a healthy Daemon unreachable, the Spawner declares it
failed and replaces its task, and then the partition heals — leaving two
live daemons computing the same task.  Epoch fencing must keep the
zombie's control messages *and* its dependency data out, the zombie must be
told to stop, and the application must still converge to the right answer.
"""

import pytest

from repro.apps import make_poisson_app
from repro.numerics import Poisson2D
from repro.checkpoint import FixedPolicy
from repro.obs import Tracer
from repro.p2p import P2PConfig, build_cluster, launch_application

from tests.helpers import (
    select,
    assemble_strip_solution,
    collect_solution,
    run_until_done,
)

FAST = P2PConfig(
    heartbeat_period=0.5, heartbeat_timeout=2.0, monitor_period=0.5,
    call_timeout=2.0, bootstrap_retry_delay=0.5,
    min_iteration_time=0.01,
)
CKPT = FixedPolicy(count=3, frequency=5)


def _zombie_run(gossip, partition=True):
    """The seed-61 three-task run; with ``partition`` the daemon of task 1
    is cut off until its task is replaced, then the partition heals."""
    n, peers = 16, 3
    tracer = Tracer()
    cluster = build_cluster(n_daemons=7, n_superpeers=2, seed=61,
                            config=FAST.with_(gossip_enabled=gossip),
                            checkpoint=CKPT, tracer=tracer)
    app = make_poisson_app("p", n=n, num_tasks=peers,
                           convergence_threshold=1e-8)
    spawner = launch_application(cluster, app)
    sim = cluster.sim
    net = cluster.network
    sim.run(until=1.0)
    zombie = healed_at = None
    if partition:
        victim_slot = spawner.register.slot(1)
        victim_host = victim_slot.daemon_id.rsplit("#", 1)[0]
        victim_epoch = victim_slot.epoch
        # cut the victim off from EVERYONE (it stays alive and computing)
        others = [h.name for h in net.hosts.values() if h.name != victim_host]
        net.partition([[victim_host], others])

        # the spawner detects the silence and replaces the task
        while spawner.replacements == 0 and sim.now < 30.0:
            sim.run(until=sim.now + 0.25)
        assert spawner.replacements == 1
        assert spawner.register.slot(1).epoch > victim_epoch
        zombie = cluster.daemons[victim_host]
        assert zombie.runner is not None  # alive and still computing

        # heal: the zombie's stale beats and boundaries now reach the others
        net.heal_partition()
        healed_at = sim.now
    assert run_until_done(cluster, spawner, horizon=900.0)
    frags = collect_solution(cluster, spawner)
    x = assemble_strip_solution(frags, n * n)
    residual = Poisson2D.manufactured(n).residual_norm(x)
    return cluster, spawner, tracer, zombie, healed_at, residual


@pytest.mark.parametrize("gossip", [False, True], ids=["gossip_off", "gossip_on"])
def test_partitioned_daemon_is_replaced_and_zombie_is_fenced(gossip):
    cluster, spawner, tracer, zombie, healed_at, residual = _zombie_run(gossip)
    *_, reference = _zombie_run(gossip, partition=False)
    # declared convergence is real convergence: no polluted fixed point
    assert residual < 1e-6
    assert residual < 10 * reference
    # the zombie never regained the slot, its data was refused, and it was
    # told to stop within one heartbeat period of being heard again
    assert spawner.register.slot(1).daemon_id != zombie.daemon_id
    assert cluster.telemetry.zombie_data_dropped > 0
    fenced = select(tracer, "p2p", "fenced", entity=zombie.daemon_id)
    assert len(fenced) == 1 and fenced[0].attrs["task"] == 1
    assert fenced[0].time - healed_at <= FAST.heartbeat_period


def test_partition_of_superpeer_isolates_only_registration():
    """Cutting a Super-Peer away must not disturb a running application
    (computing peers talk to the Spawner and each other, not to SPs)."""
    cluster = build_cluster(n_daemons=6, n_superpeers=2, seed=67, config=FAST, checkpoint=CKPT)
    app = make_poisson_app("p", n=16, num_tasks=3, convergence_threshold=1e-8)
    spawner = launch_application(cluster, app)
    sim = cluster.sim
    net = cluster.network
    sim.run(until=1.0)
    sp_host = cluster.superpeers[0].host.name
    others = [h.name for h in net.hosts.values() if h.name != sp_host]
    net.partition([[sp_host], others])
    assert run_until_done(cluster, spawner, horizon=900.0)
    frags = collect_solution(cluster, spawner)
    x = assemble_strip_solution(frags, 256)
    assert Poisson2D.manufactured(16).residual_norm(x) < 1e-4


def test_partition_splitting_the_application_stalls_then_recovers():
    """Split the computing peers from the spawner side: tasks on the far
    side get replaced; after healing, the app still finishes correctly."""
    n, peers = 16, 3
    cluster = build_cluster(n_daemons=8, n_superpeers=2, seed=71, config=FAST, checkpoint=CKPT)
    app = make_poisson_app("p", n=n, num_tasks=peers,
                           convergence_threshold=1e-8)
    spawner = launch_application(cluster, app)
    sim = cluster.sim
    net = cluster.network
    sim.run(until=1.0)
    computing = {
        s.daemon_id.rsplit("#", 1)[0]
        for s in spawner.register.slots if s.assigned
    }
    far_side = sorted(computing)[:2]  # two of the three computing hosts
    near = [h.name for h in net.hosts.values() if h.name not in far_side]
    net.partition([list(far_side), near])
    sim.run(until=sim.now + 8.0)  # let detection + replacement happen
    net.heal_partition()
    assert run_until_done(cluster, spawner, horizon=900.0)
    frags = collect_solution(cluster, spawner)
    x = assemble_strip_solution(frags, n * n)
    assert Poisson2D.manufactured(n).residual_norm(x) < 1e-4
    assert spawner.replacements >= 2


def test_a_second_failure_restores_the_replacements_backup():
    """After the heal the zombie, running ahead on frozen inputs, keeps
    saving Backups of higher iterations than its replacement's.  When the
    replacement fails in turn, recovery must reload the replacement's own
    Backup: the zombie's would roll the task *forward* onto a state built
    on stale inputs, past anything the live lineage computed (§5.4)."""
    n = 16
    tracer = Tracer()
    cluster = build_cluster(n_daemons=9, n_superpeers=2, seed=61, config=FAST,
                            checkpoint=CKPT, tracer=tracer)
    app = make_poisson_app("p", n=n, num_tasks=4, convergence_threshold=1e-8)
    spawner = launch_application(cluster, app)
    sim = cluster.sim
    net = cluster.network
    sim.run(until=1.0)
    zombie_id = spawner.register.slot(1).daemon_id
    zombie_host = zombie_id.rsplit("#", 1)[0]
    net.partition([[zombie_host],
                   [h.name for h in net.hosts.values() if h.name != zombie_host]])
    while spawner.replacements == 0 and sim.now < 30.0:
        sim.run(until=sim.now + 0.25)
    replacement_id = spawner.register.slot(1).daemon_id
    net.heal_partition()
    sim.run(until=sim.now + 0.5)  # both incarnations save after the heal

    def saved_by(daemon_id):
        return {e.attrs["iteration"] for e in select(
            tracer, "p2p", "checkpoint_store", entity=daemon_id)}

    # what makes the order matter: the zombie has saved higher iterations
    # than its replacement
    assert max(saved_by(zombie_id)) > max(saved_by(replacement_id))
    runner = cluster.daemons[replacement_id.rsplit("#", 1)[0]].runner
    reached = runner.iteration
    crashed_at = sim.now
    runner.daemon.host.fail(cause="second failure")
    while spawner.replacements < 2 and sim.now < 30.0:
        sim.run(until=sim.now + 0.25)
    assert spawner.replacements == 2
    assert run_until_done(cluster, spawner, horizon=900.0)
    [recovery] = [e for e in select(tracer, "p2p", "recovery")
                  if e.time > crashed_at and e.attrs["task"] == 1]
    assert not recovery.attrs["from_scratch"]
    resumed = recovery.attrs["iteration"]
    assert resumed in saved_by(replacement_id) and resumed <= reached
    frags = collect_solution(cluster, spawner)
    x = assemble_strip_solution(frags, n * n)
    assert Poisson2D.manufactured(n).residual_norm(x) < 1e-6
