"""Tests for the batched compute plane (:mod:`repro.compute`): kernel
bitwise identity, cohort mechanics, memo replay, zero-copy payload views —
and the run-level guarantee that the plane is invisible to simulated time:
a cluster with no plane, whose tasks solve on the spot, runs identically."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.compute import (DIRECT_CHUNK, ComputePlane, batched_cg,
                           chunked_direct_solve, csr_matmat_into,
                           panel_probe)
from repro.numerics import BlockDecomposition, CgOperator, Poisson2D
from repro.numerics.cg import csr_matvec_into
from repro.p2p.task import StepPlan
from repro.util.hotpath import clear_caches
from repro.util.serialization import (NDARRAY_HEADER_BYTES, _payload_size,
                                      measured_size)
from tests.helpers import poisson_strip


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


# ------------------------------------------------------------ fused matvec


@pytest.mark.parametrize("n,k", [(5, 1), (9, 3), (12, 8), (16, 5)])
def test_csr_matmat_into_bitwise_per_column(n, k):
    A, _ = _spd(n)
    rng = np.random.default_rng(n * 31 + k)
    X = np.ascontiguousarray(rng.standard_normal((A.shape[0], k)))
    out = np.empty_like(X)
    csr_matmat_into(A, X, out)
    col = np.empty(A.shape[0])
    for j in range(k):
        csr_matvec_into(A, np.ascontiguousarray(X[:, j]), col)
        assert out[:, j].tobytes() == col.tobytes()


# ------------------------------------------------------------- batched CG


def test_batched_cg_bitwise_matches_scalar_solves():
    A, b = _spd(10)
    op = CgOperator(A)
    n = op.n
    rng = np.random.default_rng(3)
    requests = [
        (b, None, 1e-8, None),                       # cold start
        (rng.standard_normal(n), None, 1e-10, None), # different rhs
        (b, rng.standard_normal(n), 1e-10, None),    # warm start
        (b, None, 1e-10, 3),                         # iteration cap
        (np.zeros(n), None, 1e-10, None),            # converged at entry
    ]
    batch = batched_cg(op, requests, {})
    for (rhs, x0, tol, max_iter), got in zip(requests, batch):
        ref = op.solve(rhs, x0=x0, tol=tol, max_iter=max_iter)
        _assert_same_result(got, ref)


def test_batched_cg_singleton_and_workspace_reuse():
    A, b = _spd(8)
    op = CgOperator(A)
    ws = {}
    first = batched_cg(op, [(b, None, 1e-9, None)], ws)[0]
    # second call through the now-pooled workspace must not see stale state
    second = batched_cg(op, [(b, None, 1e-9, None)], ws)[0]
    ref = op.solve(b, tol=1e-9)
    _assert_same_result(first, ref)
    _assert_same_result(second, ref)
    assert 1 in ws


def test_batched_cg_breakdown_matches_scalar():
    # An indefinite matrix drives pAp <= 0: the batch must exit exactly
    # where the scalar loop does, before the x update.
    A = sp.csr_matrix(np.diag([1.0, -1.0, 2.0]))
    b = np.array([1.0, 1.0, 1.0])
    op = CgOperator(A)
    got = batched_cg(op, [(b, None, 1e-12, None)], {})[0]
    ref = op.solve(b, tol=1e-12)
    _assert_same_result(got, ref)
    assert not got.converged


def test_batched_cg_mixed_convergence_deactivates_individually():
    # Members with wildly different tolerances stop at their own iteration
    # count; late iterations of the survivor are unaffected by the stopped
    # member's stale direction column.
    A, _ = _spd(12)
    op = CgOperator(A)
    b = np.random.default_rng(12).standard_normal(op.n)
    requests = [(b, None, 1e-2, None), (b, None, 1e-11, None)]
    loose, tight = batched_cg(op, requests, {})
    _assert_same_result(loose, op.solve(b, tol=1e-2))
    _assert_same_result(tight, op.solve(b, tol=1e-11))
    assert loose.iterations < tight.iterations


# ------------------------------------------------------------ direct panels


def test_chunked_direct_solve_padding_independent():
    A, b = _spd(9)
    op = CgOperator(A)
    lu = op.factorization()
    rng = np.random.default_rng(5)
    rhs = [rng.standard_normal(op.n) for _ in range(11)]  # > one chunk
    panel = np.empty((op.n, DIRECT_CHUNK))
    xs = chunked_direct_solve(lu, rhs, panel)
    assert len(xs) == 11
    # per-column results do not depend on batch composition: solving each
    # rhs alone in its own zero-padded panel gives the same bytes
    for r, x in zip(rhs, xs):
        alone = chunked_direct_solve(lu, [r], panel)[0]
        assert x.tobytes() == alone.tobytes()
        assert x.flags["C_CONTIGUOUS"] and x.flags.owndata


def test_panel_probe_certifies_safe_regime():
    # small blocks: SuperLU's stacked path is the 1-D kernel per column
    A, b = _spd(8)
    op = CgOperator(A)
    lu = op.factorization()
    panel = np.empty((op.n, DIRECT_CHUNK))
    assert panel_probe(lu, op.n, panel)
    # probe passing implies stacked == 1-D for arbitrary mixed values
    rng = np.random.default_rng(8)
    rhs = [b] + [rng.standard_normal(op.n) for _ in range(6)]
    for r, x in zip(rhs, chunked_direct_solve(lu, rhs, panel)):
        assert x.tobytes() == lu.solve(r).tobytes()


def test_panel_probe_yes_means_bitwise_panels():
    # which sizes the probe certifies is a fact about SuperLU's supernodes
    # under the current ordering, not a contract; the contract is that a
    # yes can be trusted.  ~100 columns the probe never saw, as full panels
    # and a final zero-padded singleton, reproduce the 1-D bytes.  (At
    # 8,192 and 12,800 rows about one column in fifteen diverges, which a
    # 4-panel probe missed.)
    certified = []
    for n, nblocks, overlap in [(48, 8, 3), (96, 8, 4), (128, 8, 6),
                                (192, 16, 6), (256, 16, 8), (320, 16, 10)]:
        op = CgOperator(poisson_strip(n, nblocks, overlap).A_local)
        lu = op.factorization()
        panel = np.empty((op.n, DIRECT_CHUNK))
        if not panel_probe(lu, op.n, panel):
            continue
        certified.append(op.n)
        rng = np.random.default_rng(op.n)
        rhs = [rng.standard_normal(op.n) for _ in range(12 * DIRECT_CHUNK + 1)]
        for r, x in zip(rhs, chunked_direct_solve(lu, rhs, panel)):
            assert x.tobytes() == lu.solve(r).tobytes(), op.n
    assert certified  # the property was exercised, not vacuously true


def test_panel_probe_rejects_value_dependent_regime():
    # the probe still earns its keep under the symmetric ordering: on a
    # 16,384-row strip stacked per-column results depend on the values
    # sharing the panel, so it must refuse (the plane then falls back to
    # the 1-D loop through the shared factorization).  The factorization
    # is built here, so the case does not move with CgOperator's choices.
    from scipy.sparse.linalg import splu

    A = poisson_strip(256, 8, 16).A_local
    lu = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
    panel = np.empty((A.shape[0], DIRECT_CHUNK))
    assert not panel_probe(lu, A.shape[0], panel)


# ---------------------------------------------------------------- cohorts


def _plan_direct(op, rhs, tol=1e-10, extra=0.0):
    return StepPlan(solver="direct", operator=op, rhs=rhs, tol=tol,
                    flops_extra=extra)


def _plan_cg(op, rhs, x0=None, tol=1e-10, max_iter=None, extra=0.0):
    return StepPlan(solver="cg", operator=op, rhs=rhs, x0=x0, tol=tol,
                    max_iter=max_iter, flops_extra=extra)


RATE = 250e6  # flops per simulated second, as a host of speed 1.0


def test_cohorts_share_by_matrix_bytes():
    A, _ = _spd(8)
    A_twin = A.copy()          # equal bytes, distinct object
    B = (A * 2.0).tocsr()      # different matrix
    plane = ComputePlane()
    m1 = plane.member_for(CgOperator(A))
    m2 = plane.member_for(CgOperator(A_twin))
    m3 = plane.member_for(CgOperator(B))
    assert m1.cohort is m2.cohort
    assert m3.cohort is not m1.cohort
    assert m1.cohort.member_count == 2
    assert plane.stats()["cohorts"] == 2


def test_direct_deferral_duration_and_collect():
    A, b = _spd(8)
    op = CgOperator(A)
    plane = ComputePlane()
    member = plane.member_for(op)
    plan = _plan_direct(op, b, extra=50.0)
    duration, result = plane.begin(member, plan, rate=RATE,
                                   overhead=2e-4, floor=5e-4)
    assert result is None and duration is not None
    # analytic duration: known before the solve runs
    from repro.numerics.cg import direct_flops_estimate
    expect = max((direct_flops_estimate(op.lu_nnz, op.n) + 50.0) / RATE
                 + 2e-4, 5e-4)
    assert duration == expect
    got = plane.collect(member)
    _assert_same_result(got, op.solve_direct(b, tol=plan.tol))
    assert plane.stats()["deferred"] == 1
    assert plane.stats()["flushes"] == 1


def test_cohort_flush_batches_siblings_bitwise():
    A, b = _spd(9)
    plane = ComputePlane()
    ops = [CgOperator(A) for _ in range(3)]
    members = [plane.member_for(op) for op in ops]
    rng = np.random.default_rng(9)
    rhss = [b] + [rng.standard_normal(ops[0].n) for _ in range(2)]
    for m, op, rhs in zip(members, ops, rhss):
        d, r = plane.begin(m, _plan_direct(op, rhs), rate=RATE,
                           overhead=2e-4, floor=5e-4)
        assert r is None
    # first collect flushes the whole cohort in one batched call
    for m, rhs in zip(members, rhss):
        got = plane.collect(m)
        ref = members[0].cohort.op.solve_direct(rhs, tol=1e-10)
        _assert_same_result(got, ref)
    assert plane.stats()["flushes"] == 1


def test_cg_pinned_defers_and_matches_eager():
    A, b = _spd(6)
    op = CgOperator(A)
    plane = ComputePlane()
    member = plane.member_for(op)
    plan = _plan_cg(op, b, tol=1e-10)
    # a floor so large that even the worst-case CG cost is pinned to it
    duration, result = plane.begin(member, plan, rate=RATE,
                                   overhead=2e-4, floor=10.0)
    assert result is None and duration == 10.0
    got = plane.collect(member)
    _assert_same_result(got, op.solve(b, tol=1e-10))


def test_cg_unpinned_solves_eagerly():
    A, b = _spd(12)
    op = CgOperator(A)
    plane = ComputePlane()
    member = plane.member_for(op)
    # a tight floor: worst-case CG cost exceeds it, so no deferral
    duration, result = plane.begin(member, _plan_cg(op, b), rate=RATE,
                                   overhead=2e-4, floor=1e-9)
    assert duration is None and result is not None
    _assert_same_result(result, op.solve(b, tol=1e-10))
    assert plane.stats()["immediate"] == 1


def test_solve_memo_replays_identical_requests():
    A, b = _spd(8)
    op = CgOperator(A)
    plane = ComputePlane()
    member = plane.member_for(op)
    kw = dict(rate=RATE, overhead=2e-4, floor=1e-9)
    _, first = plane.begin(member, _plan_cg(op, b), **kw)
    _, replay = plane.begin(member, _plan_cg(op, b.copy()), **kw)
    _assert_same_result(replay, first)
    assert plane.stats()["memo_hits"] == 1
    # the replayed x is a private copy: mutating it must not poison the memo
    replay.x[0] = 1e9
    _, again = plane.begin(member, _plan_cg(op, b), **kw)
    _assert_same_result(again, first)
    # a different rhs is a miss
    other = b * 2.0
    _, fresh = plane.begin(member, _plan_cg(op, other), **kw)
    _assert_same_result(fresh, op.solve(other, tol=1e-10))
    assert plane.stats()["memo_hits"] == 2


def test_discard_mid_defer_leaves_siblings_intact():
    A, b = _spd(9)
    plane = ComputePlane()
    op1, op2 = CgOperator(A), CgOperator(A)
    m1, m2 = plane.member_for(op1), plane.member_for(op2)
    plane.begin(m1, _plan_direct(op1, b), rate=RATE, overhead=2e-4,
                floor=5e-4)
    rhs2 = b * 3.0
    plane.begin(m2, _plan_direct(op2, rhs2), rate=RATE, overhead=2e-4,
                floor=5e-4)
    plane.discard(m1)  # crashed mid-defer
    assert m1.cohort.member_count == 1
    got = plane.collect(m2)
    _assert_same_result(got, m2.cohort.op.solve_direct(rhs2, tol=1e-10))
    with pytest.raises(RuntimeError):
        plane.collect(m1)


def test_collect_without_deferred_solve_raises():
    A, _ = _spd(6)
    plane = ComputePlane()
    member = plane.member_for(CgOperator(A))
    with pytest.raises(RuntimeError):
        plane.collect(member)


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
    every task takes ``iterate()``, the solve-on-the-spot path that
    :mod:`repro.local` and the baselines use."""
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

    cfg = P2PConfig(superpeer_tiers=2, superpeer_fanout=4,
                    heartbeat_mode="wheel")
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
