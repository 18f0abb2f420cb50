"""Tests for the nonlinear application (§8 future work: nonlinear apps)."""

import numpy as np
import pytest

from repro.apps import (
    NonlinearPoissonTask,
    make_nonlinear_app,
    nonlinear_reference,
)
from repro.apps.nonlinear_task import _manufactured_system
from repro.checkpoint import FixedPolicy
from repro.p2p import P2PConfig, TaskContext, build_cluster, launch_application

from tests.helpers import (
    assemble_strip_solution,
    collect_solution,
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


def make_task(params, task_id=0, num_tasks=2):
    task = NonlinearPoissonTask()
    task.setup(TaskContext("nl", task_id, num_tasks, params))
    task.load_state(task.initial_state())
    return task


def test_manufactured_system_is_exact():
    A, b, u_star = _manufactured_system(10, c=2.0)
    assert np.allclose(A @ u_star + 2.0 * u_star**3, b)


def test_reference_newton_recovers_manufactured_solution():
    _, _, u_star = _manufactured_system(10, c=1.0)
    u = nonlinear_reference(10, c=1.0)
    assert np.allclose(u, u_star, atol=1e-9)


def test_reference_with_zero_c_matches_linear_solve():
    from scipy.sparse.linalg import spsolve

    A, b, _ = _manufactured_system(8, c=0.0)
    assert np.allclose(nonlinear_reference(8, c=0.0), spsolve(A.to_scipy().tocsc(), b),
                       atol=1e-9)


def test_task_local_newton_converges_on_isolated_block():
    task = make_task({"n": 8, "c": 1.0, "newton_iters": 6}, num_tasks=1)
    for _ in range(3):
        step = task.iterate({})
    # the single block IS the global problem: must match the reference
    _, values = task.solution_fragment()
    ref = nonlinear_reference(8, c=1.0)
    assert np.allclose(values, ref, atol=1e-8)
    assert step.flops > 0


def test_task_validation():
    with pytest.raises(ValueError):
        make_task({"n": 8, "c": -1.0})
    with pytest.raises(ValueError):
        make_task({"n": 8, "newton_iters": 0})


def test_nonlinear_app_converges_asynchronously_on_runtime():
    n, peers = 12, 3
    cluster = build_cluster(n_daemons=5, n_superpeers=2, seed=17, config=FAST, checkpoint=CKPT)
    app = make_nonlinear_app("nl", n=n, num_tasks=peers, c=1.0,
                             convergence_threshold=1e-9)
    spawner = launch_application(cluster, app)
    assert run_until_done(cluster, spawner, horizon=900.0)
    frags = collect_solution(cluster, spawner)
    x = assemble_strip_solution(frags, n * n)
    ref = nonlinear_reference(n, c=1.0)
    assert np.max(np.abs(x - ref)) < 1e-4


def test_nonlinear_app_survives_a_failure():
    n, peers = 12, 3
    cluster = build_cluster(n_daemons=7, n_superpeers=2, seed=19, config=FAST, checkpoint=CKPT)
    app = make_nonlinear_app("nl", n=n, num_tasks=peers, c=0.5,
                             convergence_threshold=1e-9)
    spawner = launch_application(cluster, app)
    sim = cluster.sim
    sim.run(until=0.5)  # mid-run (the app converges around t~1.4s)
    victim_name = spawner.register.slot(1).daemon_id.rsplit("#", 1)[0]
    victim = next(h for h in cluster.testbed.daemon_hosts
                  if h.name == victim_name)
    victim.fail(cause="test")
    assert run_until_done(cluster, spawner, horizon=900.0)
    frags = collect_solution(cluster, spawner)
    x = assemble_strip_solution(frags, n * n)
    ref = nonlinear_reference(n, c=0.5)
    assert np.max(np.abs(x - ref)) < 1e-4


def test_stronger_nonlinearity_still_converges():
    task = make_task({"n": 8, "c": 10.0, "newton_iters": 8}, num_tasks=1)
    for _ in range(4):
        task.iterate({})
    _, values = task.solution_fragment()
    assert np.allclose(values, nonlinear_reference(8, c=10.0), atol=1e-7)
