"""§5.3 under fire: the whole protocol stack on a lossy network.

"As the asynchronous model is message loss tolerant, any message to be sent
... is lost, and the alive nodes keep computing their tasks."

These tests drop a sizeable fraction of ALL messages — data exchanges,
heartbeats, checkpoints, control calls — and require the application to
still converge to the right answer.  Lost heartbeats also provoke false
failure detections, so this exercises eviction, re-registration and
replacement under noise, not just the data channel.
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

# a timeout tolerant of a couple of consecutively-lost heartbeats, so the
# loss does not degenerate into a permanent eviction storm
LOSSY = P2PConfig(
    heartbeat_period=0.3,
    heartbeat_timeout=2.5,
    monitor_period=0.3,
    call_timeout=1.5,
    bootstrap_retry_delay=0.3,
    min_iteration_time=0.01,
    stability_window=6,
)
CKPT = FixedPolicy(count=4, frequency=5)


@pytest.mark.parametrize("loss_rate", [0.05, 0.2])
def test_poisson_converges_on_lossy_network(loss_rate):
    n, peers = 16, 4
    cluster = build_cluster(
        n_daemons=8, n_superpeers=2, seed=23, config=LOSSY,
        checkpoint=CKPT,
        loss_rate=loss_rate,
    )
    app = make_poisson_app("p", n=n, num_tasks=peers,
                           convergence_threshold=1e-8)
    spawner = launch_application(cluster, app)
    assert run_until_done(cluster, spawner, horizon=900.0)
    assert cluster.network.dropped_loss > 0  # the loss really happened
    frags = collect_solution(cluster, spawner)
    x = assemble_strip_solution(frags, n * n)
    if np.isnan(x).any():
        pytest.skip("collection raced a loss-induced replacement")
    assert Poisson2D.manufactured(n).residual_norm(x) < 1e-4


def test_loss_slows_but_does_not_break():
    times = {}
    for loss in (0.0, 0.2):
        cluster = build_cluster(
            n_daemons=8, n_superpeers=2, seed=29, config=LOSSY,
            checkpoint=CKPT,
            loss_rate=loss,
        )
        app = make_poisson_app("p", n=16, num_tasks=4,
                               convergence_threshold=1e-8)
        spawner = launch_application(cluster, app)
        assert run_until_done(cluster, spawner, horizon=900.0)
        times[loss] = spawner.execution_time
    assert times[0.2] > times[0.0] * 0.8  # no free lunch, but it finishes


def test_false_detections_are_survivable():
    """With 30% loss, heartbeats go missing in bursts: the Spawner may
    falsely evict a live daemon and replace its task.  The zombie's stale
    messages must be rejected by the epoch filters and the result stay
    correct."""
    n, peers = 16, 3
    cluster = build_cluster(
        n_daemons=8, n_superpeers=2, seed=31,
        config=LOSSY.with_(heartbeat_timeout=1.0),  # hair-trigger detection
        checkpoint=CKPT,
        loss_rate=0.3,
    )
    app = make_poisson_app("p", n=n, num_tasks=peers,
                           convergence_threshold=1e-8)
    spawner = launch_application(cluster, app)
    assert run_until_done(cluster, spawner, horizon=900.0)
    frags = collect_solution(cluster, spawner)
    x = assemble_strip_solution(frags, n * n)
    if np.isnan(x).any():
        pytest.skip("collection raced a loss-induced replacement")
    assert Poisson2D.manufactured(n).residual_norm(x) < 1e-4
