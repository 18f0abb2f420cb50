"""Network partitions and live zombies.

The hardest failure-detection case is a peer that is *not* dead: a network
partition makes a healthy Daemon unreachable, the Spawner declares it
failed and replaces its task, and then the partition heals — leaving two
live daemons computing the same task.  The epoch fencing must keep the
zombie's control messages out, and the application must still converge to
the right answer.
"""

import numpy as np
import pytest

from repro.apps import make_poisson_app
from repro.numerics import Poisson2D
from repro.checkpoint import FixedPolicy
from repro.p2p import P2PConfig, build_cluster, launch_application

from tests.helpers import (
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


def test_partitioned_daemon_is_replaced_and_zombie_is_fenced():
    n, peers = 16, 3
    cluster = build_cluster(n_daemons=7, n_superpeers=2, seed=61, config=FAST, checkpoint=CKPT)
    app = make_poisson_app("p", n=n, num_tasks=peers,
                           convergence_threshold=1e-8)
    spawner = launch_application(cluster, app)
    sim = cluster.sim
    net = cluster.network
    sim.run(until=1.0)

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

    # heal: the zombie's stale heartbeats/set_state now reach the spawner
    net.heal_partition()
    assert run_until_done(cluster, spawner, horizon=900.0)

    frags = collect_solution(cluster, spawner)
    x = assemble_strip_solution(frags, n * n)
    assert Poisson2D.manufactured(n).residual_norm(x) < 1e-4
    # the zombie never regained the slot
    assert spawner.register.slot(1).daemon_id != zombie.daemon_id


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
