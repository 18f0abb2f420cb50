"""Tests for the compute plane (:mod:`repro.compute`): operator sharing,
memo replay, zero-copy payload views — and the run-level guarantee that the
plane is invisible to simulated time: a cluster with no plane, whose tasks
solve on the spot, runs identically."""

import numpy as np
import pytest

from repro.apps import PoissonTask
from repro.compute import ComputePlane
from repro.numerics import BlockDecomposition, CgOperator, Poisson2D
from repro.util.caches import clear_caches
from repro.util.serialization import (NDARRAY_HEADER_BYTES, _payload_size,
                                      measured_size)
from tests.helpers import strip_task


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _assert_same_result(res_a, res_b):
    assert np.array_equal(res_a.x, res_b.x)
    assert res_a.converged == res_b.converged
    assert res_a.iterations == res_b.iterations
    assert res_a.residual_norm == res_b.residual_norm
    assert res_a.flops == res_b.flops


def _spd(n, seed=0):
    prob = Poisson2D.manufactured(n)
    return prob.A, prob.b


# ---------------------------------------------------------------- cohorts


def test_cohorts_share_by_matrix_bytes():
    A, _ = _spd(8)
    A_twin = A.copy()          # equal bytes, distinct object
    B = (A * 2.0).tocsr()      # different matrix
    plane = ComputePlane()
    op1, op2, op3 = CgOperator(A), CgOperator(A_twin), CgOperator(B)
    assert plane.operator_for(op1) is op1
    assert plane.operator_for(op2) is op1
    assert plane.operator_for(op3) is op3
    assert plane.stats()["cohorts"] == 2


def _poisson_task(params, plane, task_id=1, num_tasks=3):
    return strip_task(PoissonTask, params, task_id, num_tasks, plane)


def test_direct_deferral_duration_and_collect():
    # nothing is deferred any more: the direct result comes back at once,
    # and the flops the runner turns into the iteration's duration are the
    # analytic estimate of an 8-line strip of 8 points (one task: no
    # coupling, plus the 2·rows rhs charge)
    from repro.numerics.cg import direct_flops_estimate

    plane = ComputePlane()
    task = _poisson_task({"n": 8, "inner_solver": "direct"}, plane, 0, 1)
    step = task.iterate({})
    assert step.flops == direct_flops_estimate(8, 8) + 2.0 * 64
    want = CgOperator(task.blk.A_local).solve_direct(task.blk.b_local)
    assert task.x.tobytes() == want.x.tobytes()
    stats = plane.stats()
    assert stats["loop_columns"] == 1
    assert (stats["flushes"], stats["deferred"]) == (0, 0)


def test_cohort_flush_batches_siblings_bitwise():
    # siblings on one shared operator get exactly what each task's own
    # operator would produce, with no flush or batching involved
    for solver in ("direct", "cg"):
        params = {"n": 9, "inner_solver": solver}
        plane = ComputePlane()
        rng = np.random.default_rng(9)
        for k in range(3):
            on = _poisson_task(params, plane, k)
            off = _poisson_task(params, None, k)
            ext = rng.standard_normal(on.ext.size)
            on.ext[:], off.ext[:] = ext, ext
            _assert_same_step(on.iterate({}), off.iterate({}))
            assert on.x.tobytes() == off.x.tobytes()
        # three strips of three grid lines: one matrix, one operator
        stats = plane.stats()
        assert stats["cohorts"] == 1
        assert stats["loop_columns"] == 3 and stats["memo_hits"] == 0
        assert (stats["flushes"], stats["deferred"],
                stats["batched_columns"]) == (0, 0, 0)


def _assert_same_step(a, b):
    assert (a.flops, a.local_distance, a.info) == (b.flops, b.local_distance,
                                                   b.info)
    assert sorted(a.outgoing) == sorted(b.outgoing)
    for nb in a.outgoing:
        assert a.outgoing[nb].tobytes() == b.outgoing[nb].tobytes()


def test_cg_unpinned_solves_eagerly():
    plane = ComputePlane()
    task = _poisson_task({"n": 12}, plane, 0, 1)
    task.iterate({})
    want = CgOperator(task.blk.A_local).solve(task.blk.b_local, tol=1e-10)
    assert task.x.tobytes() == want.x.tobytes()
    assert plane.stats()["loop_columns"] == 1
    assert plane.stats()["deferred"] == 0


def test_solve_memo_replays_identical_requests():
    plane = ComputePlane()
    task = _poisson_task({"n": 8}, plane)
    ext = np.random.default_rng(2).standard_normal(task.ext.size)
    task.ext[:] = ext
    first = task.iterate({})
    x = task.x
    replay = task.iterate({})  # no fresh boundary data: the same rhs
    assert replay.local_distance == 0.0  # the iterate did not move
    replay.local_distance = first.local_distance
    _assert_same_step(replay, first)
    assert task.x is x
    assert plane.stats()["memo_hits"] == 1
    # the replayed iterate is frozen: it cannot poison the memo
    with pytest.raises(ValueError):
        task.x[0] = 1e9
    # a different rhs is a miss
    task.ext[:] = 2.0 * ext
    task.iterate({})
    want = CgOperator(task.blk.A_local).solve(task._assemble_rhs().copy())
    assert task.x.tobytes() == want.x.tobytes()
    assert plane.stats()["memo_hits"] == 1
    assert plane.stats()["loop_columns"] == 2


# ----------------------------------------------------- zero-copy payloads


def test_outgoing_payloads_are_frozen_views_matching_copies():
    prob = Poisson2D.manufactured(10)
    d = BlockDecomposition(prob.A, prob.b, nblocks=3, line=10, overlap=1)
    rng = np.random.default_rng(4)
    for blk in d.blocks:
        x = rng.standard_normal(blk.n_ext)
        views = blk.outgoing_payloads(x)
        copies = {nb: blk.values_to_send(x, nb) for nb in blk.send_map}
        assert sorted(views) == sorted(copies)
        for nb, v in views.items():
            assert np.array_equal(v, copies[nb])
            assert not v.flags.writeable  # frozen: aliasing fails loudly
            with pytest.raises(ValueError):
                v[0] = 123.0
            assert copies[nb].flags.writeable


# ------------------------------------------------- ndarray header constant


def test_ndarray_header_constant_matches_measured_charge():
    # the exact-type walk and the reference cascade each add the constant
    # themselves; this pins both to one charge per array.
    for n in (1, 17, 1024):
        arr = np.zeros(n)
        assert measured_size(arr) == arr.nbytes + NDARRAY_HEADER_BYTES + 256
        assert _payload_size(arr, 0) == arr.nbytes + NDARRAY_HEADER_BYTES


# ------------------------------------------------- repo-relative profiles


def test_profile_top_paths_are_repo_relative():
    # saved profile reports embed these paths: they must not leak the
    # recording machine's checkout prefix
    import pathlib

    from repro.obs.profile import profile_callable

    repo = str(pathlib.Path(__file__).resolve().parents[1])
    A, b = _spd(8)
    report, _ = profile_callable(lambda: CgOperator(A).solve(b), top_n=10)
    rows = report.as_dict()["top"]
    repro_rows = [r for r in rows if "repro" in r["file"]]
    assert repro_rows, "profiled run should surface repro frames"
    for row in rows:
        assert not row["file"].startswith(repo + "/"), row["file"]
    assert any(r["file"].startswith("src/repro/") for r in repro_rows)


# ------------------------------------------------------ run-level identity


def _ab(kw, monkeypatch):
    """The same run on a cluster with the plane and on one without: there
    every task sees ``ctx.compute is None`` and solves on its own operator,
    as under :mod:`repro.local` and the baselines."""
    from repro.exec import RunSpec
    from repro.experiments import driver

    clear_caches()
    on = RunSpec(**kw).run()
    build_cluster = driver.build_cluster

    def build_planeless(*args, **kwargs):
        cluster = build_cluster(*args, **kwargs)
        cluster.compute = None  # what later incarnations are booted with
        for daemon in cluster.daemons.values():
            daemon.compute = None
        return cluster

    monkeypatch.setattr(driver, "build_cluster", build_planeless)
    clear_caches()
    off = RunSpec(**kw).run()
    return on, off


def test_run_flat_bitwise_plane_on_vs_off(monkeypatch):
    on, off = _ab(dict(n=16, peers=4, seed=3, convergence_threshold=1e-6),
                  monkeypatch)
    assert on == off
    assert on.converged


def test_run_tiered_wheel_bitwise_plane_on_vs_off(monkeypatch):
    from repro.p2p.config import P2PConfig

    cfg = P2PConfig(superpeer_tiers=2, superpeer_fanout=4)
    on, off = _ab(dict(n=16, peers=4, seed=1, config=cfg, n_daemons=12,
                       n_superpeers=4, convergence_threshold=1e-5),
                  monkeypatch)
    assert on == off


def test_run_churn_with_recoveries_bitwise_plane_on_vs_off(monkeypatch):
    on, off = _ab(dict(n=16, peers=3, seed=7, disconnections=2,
                       convergence_threshold=1e-4), monkeypatch)
    assert on == off
    assert on.recoveries >= 1


def test_run_fault_scenario_bitwise_plane_on_vs_off(monkeypatch):
    from repro.faults.scenarios import scenario

    on, off = _ab(dict(n=16, peers=4, seed=2, faults=scenario("dirty-channel"),
                       n_daemons=12, convergence_threshold=1e-5,
                       horizon=60.0), monkeypatch)
    assert on == off
    assert on.faults_executed > 0


def test_run_small_blocks_bitwise_plane_on_vs_off(monkeypatch):
    # one grid line per task: the blocks a shared operator serves most
    on, off = _ab(dict(n=16, peers=16, seed=0), monkeypatch)
    assert on == off
    assert on.converged
