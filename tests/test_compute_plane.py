"""Tests for the compute plane (:mod:`repro.compute`): operator sharing,
memo replay, zero-copy payload views — and the run-level guarantee that the
plane is invisible to simulated time: a cluster with no plane, whose tasks
solve on the spot, runs identically."""

import numpy as np
import pytest

from repro.compute import ComputePlane
from repro.numerics import BlockDecomposition, CgOperator, Poisson2D
from repro.util.caches import clear_caches
from repro.util.serialization import (NDARRAY_HEADER_BYTES, _payload_size,
                                      measured_size)


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
    m1 = plane.member_for(CgOperator(A))
    m2 = plane.member_for(CgOperator(A_twin))
    m3 = plane.member_for(CgOperator(B))
    assert m1.op is m2.op
    assert m3.op is not m1.op
    assert plane.stats()["cohorts"] == 2


def test_direct_deferral_duration_and_collect():
    # nothing is deferred any more: the direct result comes back from the
    # seat at once, and the flops the runner turns into the iteration's
    # duration are the analytic LU estimate
    A, b = _spd(8)
    op = CgOperator(A)
    plane = ComputePlane()
    member = plane.member_for(op)
    got = member.solve_direct(b, tol=1e-10)
    _assert_same_result(got, op.solve_direct(b, tol=1e-10))
    from repro.numerics.cg import direct_flops_estimate
    lu = op.factorization()
    assert got.flops == direct_flops_estimate(lu.L.nnz + lu.U.nnz, op.n)
    stats = plane.stats()
    assert stats["loop_columns"] == 1
    assert (stats["flushes"], stats["deferred"]) == (0, 0)


def test_cohort_flush_batches_siblings_bitwise():
    # siblings on one shared operator get exactly what each member's own
    # operator would produce, with no flush or batching involved
    A, b = _spd(9)
    plane = ComputePlane()
    ops = [CgOperator(A) for _ in range(3)]
    members = [plane.member_for(op) for op in ops]
    assert all(m.op is members[0].op for m in members)
    rng = np.random.default_rng(9)
    rhss = [b] + [rng.standard_normal(ops[0].n) for _ in range(2)]
    for m, op, rhs in zip(members, ops, rhss):
        _assert_same_result(m.solve_direct(rhs, tol=1e-10),
                            op.solve_direct(rhs, tol=1e-10))
        _assert_same_result(m.solve(rhs, tol=1e-10),
                            op.solve(rhs, tol=1e-10))
    stats = plane.stats()
    assert stats["loop_columns"] == 6 and stats["memo_hits"] == 0
    assert (stats["flushes"], stats["deferred"],
            stats["batched_columns"]) == (0, 0, 0)


def test_cg_unpinned_solves_eagerly():
    A, b = _spd(12)
    op = CgOperator(A)
    plane = ComputePlane()
    member = plane.member_for(op)
    result = member.solve(b)
    _assert_same_result(result, op.solve(b, tol=1e-10))
    assert plane.stats()["loop_columns"] == 1
    assert plane.stats()["deferred"] == 0


def test_solve_memo_replays_identical_requests():
    A, b = _spd(8)
    op = CgOperator(A)
    plane = ComputePlane()
    member = plane.member_for(op)
    first = member.solve(b)
    replay = member.solve(b.copy())
    _assert_same_result(replay, first)
    assert plane.stats()["memo_hits"] == 1
    # the replayed x is a private copy: mutating it must not poison the memo
    replay.x[0] = 1e9
    again = member.solve(b)
    _assert_same_result(again, first)
    # a different rhs is a miss
    other = b * 2.0
    fresh = member.solve(other)
    _assert_same_result(fresh, op.solve(other, tol=1e-10))
    assert plane.stats()["memo_hits"] == 2
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
