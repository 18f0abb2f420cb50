"""Unit tests for the SPMD applications (Poisson / Jacobi / Heat /
nonlinear / convection–diffusion tasks): setup determinism, state
round-trips, iteration math against sequential references, message shapes,
and pinned digests of each app's iterates."""

import hashlib

import numpy as np
import pytest

from repro.apps import (
    ConvectionDiffusionTask,
    HeatTask,
    JacobiTask,
    NonlinearPoissonTask,
    PoissonTask,
    make_heat_app,
    make_jacobi_app,
    make_poisson_app,
)
from repro.numerics import BlockDecomposition, Poisson2D, block_jacobi
from repro.p2p import TaskContext


def make_task(cls, params, task_id=1, num_tasks=3, app_id="t"):
    task = cls()
    task.setup(TaskContext(app_id=app_id, task_id=task_id, num_tasks=num_tasks,
                           params=params))
    task.load_state(task.initial_state())
    return task


def run_ring_until(tasks, rounds):
    """Synchronously relay messages between task objects for `rounds`."""
    inboxes = [dict() for _ in tasks]
    for _ in range(rounds):
        steps = [t.iterate(inboxes[i]) for i, t in enumerate(tasks)]
        inboxes = [dict() for _ in tasks]
        for i, step in enumerate(steps):
            for dst, payload in step.outgoing.items():
                inboxes[dst][i] = payload
    return steps


# --------------------------------------------------------------------- poisson


def test_poisson_task_setup_is_deterministic():
    a = make_task(PoissonTask, {"n": 12, "overlap": 1})
    b = make_task(PoissonTask, {"n": 12, "overlap": 1})
    assert a.blk.own_start == b.blk.own_start
    assert np.array_equal(a.blk.b_local, b.blk.b_local)
    assert (a.blk.A_local.to_scipy() != b.blk.A_local.to_scipy()).nnz == 0


def test_poisson_task_state_roundtrip():
    task = make_task(PoissonTask, {"n": 10})
    task.x[:] = 3.14
    task.ext[:] = 2.71
    state = task.dump_state()
    other = make_task(PoissonTask, {"n": 10})
    other.load_state(state)
    assert np.array_equal(other.x, task.x)
    assert np.array_equal(other.ext, task.ext)
    # dumped state must be a snapshot, not an alias
    task.x[0] = -1
    assert state["x"][0] == 3.14


def test_poisson_tasks_match_sequential_block_jacobi():
    """Running the tasks in lockstep == the sequential reference solver."""
    n, p = 10, 2
    tasks = [
        make_task(PoissonTask, {"n": n, "overlap": 0}, task_id=k, num_tasks=p)
        for k in range(p)
    ]
    run_ring_until(tasks, rounds=50)
    x = np.zeros(n * n)
    for t in tasks:
        off, vals = t.solution_fragment()
        x[off : off + len(vals)] = vals

    prob = Poisson2D.manufactured(n)
    d = BlockDecomposition(prob.A, prob.b, nblocks=p, line=n)
    ref = block_jacobi(d, tol=1e-30, max_outer=50)
    assert np.allclose(x, ref.x, atol=1e-8)


def test_poisson_task_ignores_malformed_inbox():
    task = make_task(PoissonTask, {"n": 10}, task_id=0, num_tasks=2)
    step_ok = task.iterate({})
    # wrong source, wrong shape: silently ignored
    step = task.iterate({99: np.ones(10), 1: np.ones(3)})
    assert np.all(task.ext == 0.0)
    assert set(step.outgoing) == set(step_ok.outgoing)


def test_poisson_task_iteration_reports_costs():
    task = make_task(PoissonTask, {"n": 10}, task_id=0, num_tasks=2)
    step = task.iterate({})
    assert step.flops > 0
    assert step.local_distance > 0  # first iteration moves off zero
    assert step.info["inner_iterations"] > 0
    assert list(step.outgoing) == [1]
    assert step.outgoing[1].shape == (10,)


def test_poisson_task_warm_start_reduces_inner_iterations():
    cold = make_task(PoissonTask, {"n": 10, "warm_start": False},
                     task_id=0, num_tasks=2)
    warm = make_task(PoissonTask, {"n": 10, "warm_start": True},
                     task_id=0, num_tasks=2)
    for task in (cold, warm):
        task.iterate({})
    # second iterate on identical data: warm start is nearly free
    cold2 = cold.iterate({})
    warm2 = warm.iterate({})
    assert warm2.info["inner_iterations"] < cold2.info["inner_iterations"]
    assert warm2.flops < cold2.flops


def test_poisson_task_unknown_problem_rejected():
    with pytest.raises(ValueError):
        make_task(PoissonTask, {"n": 8, "problem": "nonsense"})


def test_make_poisson_app_spec_carries_params():
    app = make_poisson_app("x", n=16, num_tasks=4, overlap=2, warm_start=True)
    assert app.params["n"] == 16 and app.params["overlap"] == 2
    assert app.params["warm_start"] is True
    assert app.num_tasks == 4


# ---------------------------------------------------------------------- jacobi


def test_jacobi_task_sweep_matches_manual_jacobi():
    n = 8
    task = make_task(JacobiTask, {"n": n, "sweeps": 1}, task_id=0, num_tasks=1)
    task.iterate({})
    prob = Poisson2D.manufactured(n)
    D = prob.A.to_scipy().diagonal()
    expected = (prob.b - (prob.A @ np.zeros(n * n)) + D * 0.0) / D
    assert np.allclose(task.x, prob.b / D)
    assert np.allclose(task.x, expected)


def test_jacobi_task_multiple_sweeps_progress_more():
    one = make_task(JacobiTask, {"n": 8, "sweeps": 1}, task_id=0, num_tasks=1)
    five = make_task(JacobiTask, {"n": 8, "sweeps": 5}, task_id=0, num_tasks=1)
    prob = Poisson2D.manufactured(8)
    ref = prob.solve_direct()
    one.iterate({})
    five.iterate({})
    assert np.linalg.norm(five.x - ref) < np.linalg.norm(one.x - ref)


def test_jacobi_task_validation():
    with pytest.raises(ValueError):
        make_task(JacobiTask, {"n": 8, "sweeps": 0})
    with pytest.raises(ValueError):
        make_task(JacobiTask, {"n": 8, "problem": "plaet"})


def test_make_jacobi_app():
    app = make_jacobi_app("j", n=12, num_tasks=3)
    assert app.params == {"n": 12, "sweeps": 1, "problem": "manufactured"}


# ------------------------------------------------------------------------ heat


def test_heat_task_respects_stability_limit():
    task = make_task(HeatTask, {"n": 8, "theta": 0.9})
    prob = Poisson2D.heat_plate(8)
    assert task.dt * prob.A.to_scipy().diagonal().max() == pytest.approx(0.9)


def test_heat_task_marches_toward_steady_state():
    n = 8
    task = make_task(HeatTask, {"n": n, "steps_per_iteration": 50},
                     task_id=0, num_tasks=1)
    prob = Poisson2D.heat_plate(n)
    ref = prob.solve_direct()
    errs = []
    for _ in range(20):
        task.iterate({})
        errs.append(np.linalg.norm(task.x - ref))
    assert errs[-1] < errs[0] * 0.1  # strong decay toward the steady state


def test_heat_task_validation():
    with pytest.raises(ValueError):
        make_task(HeatTask, {"n": 8, "theta": 1.5})
    with pytest.raises(ValueError):
        make_task(HeatTask, {"n": 8, "steps_per_iteration": 0})
    with pytest.raises(ValueError):
        make_task(HeatTask, {"n": 8, "problem": "manufacterd"})


def test_make_heat_app():
    app = make_heat_app("h", n=10, num_tasks=2)
    assert app.params == {"n": 10, "theta": 0.9, "steps_per_iteration": 10,
                          "problem": "plate"}


# ----------------------------------------------------- cross-app conventions


@pytest.mark.parametrize(
    "factory,params",
    [
        (PoissonTask, {"n": 12, "overlap": 1}),
        (JacobiTask, {"n": 12}),
        (HeatTask, {"n": 12}),
    ],
)
def test_every_app_exchanges_one_grid_line_per_neighbour(factory, params):
    """§6: exchanged data per neighbour is n components."""
    task = make_task(factory, params, task_id=1, num_tasks=3)
    step = task.iterate({})
    assert set(step.outgoing) == {0, 2}
    for payload in step.outgoing.values():
        assert np.asarray(payload).shape == (12,)


@pytest.mark.parametrize(
    "factory,params",
    [
        (PoissonTask, {"n": 8}),
        (JacobiTask, {"n": 8}),
        (HeatTask, {"n": 8}),
    ],
)
def test_every_app_fragment_covers_owned_range(factory, params):
    task = make_task(factory, params, task_id=2, num_tasks=4)
    task.iterate({})
    offset, values = task.solution_fragment()
    assert offset == task.blk.own_start
    assert len(values) == task.blk.n_owned


@pytest.mark.parametrize(
    "factory,digest",
    [
        (PoissonTask,
         "1da8e6ad313dc1dbee18bf3e106c6e47c2fa12bd2a7fcecc915a3ae7f250052e"),
        (JacobiTask,
         "2f2c08fbd100c57e6a032c9149653d85f561458a3f626f92ffd3480e2b3ab13c"),
        (HeatTask,
         "c7e73d97273f571375e460c3780858f058558ddb9f83847860080ebcec82307e"),
        (NonlinearPoissonTask,
         "2e50a85eee940fa8d1afc6b1dedc97110599c8f6d632217bace9ab919014b977"),
        (ConvectionDiffusionTask,
         "1b30ebcbe17b28d89e40ff4f023a103489852ea0062fb360c273379f427eaa8e"),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else "",
)
def test_every_app_iterates_bitwise_as_pinned(factory, digest):
    """Four lockstep rounds of a three-task strip at each app's defaults
    hash to a pinned digest: the iterates, the outgoing payloads, the flop
    estimate and the local distance, bit for bit."""
    tasks = [make_task(factory, {"n": 12}, task_id=k, num_tasks=3)
             for k in range(3)]
    steps = run_ring_until(tasks, rounds=4)
    h = hashlib.sha256()
    for task, step in zip(tasks, steps):
        h.update(task.x.tobytes())
        for dst in sorted(step.outgoing):
            h.update(np.asarray(step.outgoing[dst], dtype=float).tobytes())
        h.update(np.float64(step.flops).tobytes())
        h.update(np.float64(step.local_distance).tobytes())
    assert h.hexdigest() == digest
