"""Tests for the boundary-sized strip iteration (:mod:`repro.apps.strip`,
:class:`repro.apps.PoissonTask`): the incremental rhs against the full
product, the task's last-solve memo against the full-rhs reference memo
(``tests/oracles/solve_memo_reference.py``), and immutable iterates with
the solution-buffer pool that relies on them."""

import json

import numpy as np
import pytest

from repro.apps import (
    ConvectionDiffusionTask,
    HeatTask,
    JacobiTask,
    NonlinearPoissonTask,
    PoissonTask,
    make_poisson_app,
)
from repro.baselines import SynchronousEngine
from repro.checkpoint import Backup
from repro.churn import ChurnEvent, TraceChurn
from repro.exec import RunSpec
from repro.experiments.config import optimal_overlap
from repro.numerics import CgOperator, Poisson2D
from repro.util.rng import RngTree
from tests.helpers import churn_injector, clear_caches, strip_task
from tests.oracles.solve_memo_reference import FullRhsMemo
from tests.test_baselines import make_world


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _full_rhs(task) -> bytes:
    blk = task.blk
    return (blk.b_local - blk.B_coupling @ task.ext).tobytes()


def _assert_rhs_tracks_ext(task, rng):
    """Several ext vectors in a row — random values, then ±0.0 mixed in —
    each giving exactly ``b_local − B_coupling @ ext``."""
    size = task.ext.size
    for round_ in range(4):
        values = rng.standard_normal(size)
        if round_ >= 2:
            values[::3] = 0.0
            values[1::3] = -0.0
        task.ext[:] = values
        assert task._assemble_rhs().tobytes() == _full_rhs(task)


#: (n, peers) of the strips the perf ledger iterates
LEDGER_STRIPS = [(96, 8), (128, 8), (256, 8), (256, 16), (40, 10), (64, 16)]


@pytest.mark.parametrize("n,peers", LEDGER_STRIPS)
def test_incremental_rhs_is_the_full_product_on_every_ledger_strip(n, peers):
    rng = np.random.default_rng(n * peers)
    params = {"n": n, "overlap": optimal_overlap(n, peers)}
    for k in range(peers):
        task = strip_task(PoissonTask, params, k, peers)
        coupled = np.diff(task.blk.B_coupling.indptr) > 0
        # neighbours reach one grid line per side: a boundary-sized update
        assert task._rows.size == coupled.sum() <= 2 * n
        _assert_rhs_tracks_ext(task, rng)


APPS = [
    (PoissonTask, {"n": 12, "overlap": 1}),
    (PoissonTask, {"n": 12, "problem": "plate"}),
    (JacobiTask, {"n": 12}),
    (HeatTask, {"n": 12}),
    (NonlinearPoissonTask, {"n": 12, "overlap": 1}),
    (ConvectionDiffusionTask, {"n": 12, "overlap": 2}),
]


def _app_id(v):
    if isinstance(v, type):
        return v.__name__
    return "-".join(f"{k}={v[k]}" for k in sorted(v))


@pytest.mark.parametrize("cls,params", APPS, ids=_app_id)
def test_incremental_rhs_is_the_full_product_for_every_app(cls, params):
    rng = np.random.default_rng(5)
    for k in range(3):
        _assert_rhs_tracks_ext(strip_task(cls, params, k, 3), rng)
    # one task: nothing couples, the rhs is b_local itself
    single = strip_task(cls, params, 0, 1)
    assert single.ext.size == 0 and single._rows.size == 0
    assert single._assemble_rhs().tobytes() == single.blk.b_local.tobytes()
    assert single._assemble_rhs().tobytes() == _full_rhs(single)


def test_rhs_buffer_is_read_only_to_updates():
    task = strip_task(PoissonTask, {"n": 12}, 1, 3)
    rhs = task._assemble_rhs()
    with pytest.raises(ValueError):
        rhs[0] = 1.0


# ------------------------------------------------ the memo vs its oracle


def _spy_memo(monkeypatch):
    """Run every ``PoissonTask._update`` alongside a per-task
    :class:`FullRhsMemo` on the same operator; returns the log of
    ``(task hit, oracle hit)`` pairs, one per update."""
    log = []
    real = PoissonTask._update

    def spy(self, rhs):
        oracle = self.__dict__.setdefault("_oracle", FullRhsMemo(self._solver))
        plane, hits = self._plane, oracle.hits
        before = plane.memo_hits
        x0 = self.x if self.warm_start else None
        x, flops, info = real(self, rhs)
        if self._direct:
            want = oracle.solve_direct(rhs, tol=self.inner_tol)
        else:
            want = oracle.solve(rhs, x0=x0, tol=self.inner_tol,
                                max_iter=self.inner_max_iter)
        assert x.tobytes() == want.x.tobytes()
        log.append((plane.memo_hits - before, oracle.hits - hits))
        return x, flops, info

    monkeypatch.setattr(PoissonTask, "_update", spy)
    return log


def _assert_same_sequence(log, plane):
    assert log, "no inner solve ran"
    assert [task for task, _ in log] == [oracle for _, oracle in log]
    hits = sum(oracle for _, oracle in log)
    assert hits > 0  # the runs do replay
    assert plane.memo_hits == hits
    assert plane.loop_columns == len(log) - hits


def _capture_clusters(monkeypatch, module):
    """Record every cluster ``module.build_cluster`` builds."""
    clusters = []
    build = module.build_cluster

    def capturing(*args, **kwargs):
        clusters.append(build(*args, **kwargs))
        return clusters[-1]

    monkeypatch.setattr(module, "build_cluster", capturing)
    return clusters


def test_memo_replays_where_the_full_rhs_memo_does_on_the_direct_golden(
        monkeypatch):
    import tests.test_golden_runs as golden_runs

    log = _spy_memo(monkeypatch)
    clusters = _capture_clusters(monkeypatch, golden_runs)
    got = golden_runs._record("direct")
    assert got == json.loads(golden_runs.GOLDEN.read_text())["direct"]
    (cluster,) = clusters
    _assert_same_sequence(log, cluster.compute)


def test_memo_replays_where_the_full_rhs_memo_does_under_churn(monkeypatch):
    from repro.experiments import driver

    log = _spy_memo(monkeypatch)
    clusters = _capture_clusters(monkeypatch, driver)
    # the ledger's quick smallblock_churn run
    run = RunSpec(n=40, peers=10, disconnections=5, churn_window=1.0,
                  seed=0, collect=True).run()
    assert run.recoveries >= 1
    _assert_same_sequence(log, clusters[-1].compute)


def test_replay_after_load_state_returns_the_last_solve(monkeypatch):
    """The sync baseline rolls a one-task run back to its zero initial
    state mid-run; the next update replays the memo (the rhs is unchanged)
    and must hand back the last solve, not the restored ``x``."""
    sim, _, hosts = make_world(1)
    app = make_poisson_app("p", n=8, num_tasks=1, convergence_threshold=1e-8)
    engine = SynchronousEngine(sim, hosts, app, checkpoint_frequency=100)
    # supersteps take ~2 ms: fail in the second, before any checkpoint
    churn_injector(sim, hosts, TraceChurn((ChurnEvent(0.003, 0.5, "h0"),)),
                   RngTree(0), horizon=10.0)
    events = []
    real_load, real_update = PoissonTask.load_state, PoissonTask._update

    def load_state(self, state):
        events.append(("load", None))
        real_load(self, state)

    def update(self, rhs):
        memo = self._memo
        x, flops, info = real_update(self, rhs)
        events.append(("hit" if self._memo is memo else "solve", x))
        return x, flops, info

    monkeypatch.setattr(PoissonTask, "load_state", load_state)
    monkeypatch.setattr(PoissonTask, "_update", update)
    result = sim.run(until=engine.done)
    assert result.converged and result.rollbacks == 1
    kinds = [kind for kind, _ in events]
    assert kinds.count("solve") == 1  # the one rhs never changes
    solved = next(x for kind, x in events if kind == "solve")
    rollback = kinds.index("load", 1)  # the first load is the setup's
    assert kinds[rollback + 1] == "hit"
    assert events[rollback + 1][1] is solved
    _, fragment = result.fragments[0]
    assert np.array_equal(fragment, solved)
    assert Poisson2D.manufactured(8).residual_norm(fragment) < 1e-8


# ------------------------------------------------------ frozen iterates


@pytest.mark.parametrize("cls,params", APPS, ids=_app_id)
def test_every_app_returns_frozen_iterates(cls, params):
    tasks = [strip_task(cls, params, k, 3) for k in range(3)]
    for task in tasks:
        step = task.iterate({})
        with pytest.raises(ValueError):
            task.x[0] = 1.0
        for payload in step.outgoing.values():
            assert np.shares_memory(payload, task.x)


def test_pool_never_reuses_a_referenced_slot():
    prob = Poisson2D.manufactured(8)
    op = CgOperator(prob.A)

    def solve():
        x = op.solve(prob.b).x
        x.flags.writeable = False  # what StripTask does to every iterate
        return x

    ref = CgOperator(prob.A).solve(prob.b).x.tobytes()
    payload = solve()[:8]                       # an in-flight payload view
    backup = Backup(0, 1, {"x": solve()})       # a checkpoint of an iterate
    held = solve()
    # (ids, not the slots: a reference held here would pin every slot)
    slots = [id(slot) for slot in op._x_pool]
    assert len(slots) == 3
    assert id(payload.base) == slots[0]
    assert id(backup.state["x"]) == slots[1] and id(held) == slots[2]
    fourth = solve()
    assert id(fourth) not in slots
    assert fourth.tobytes() == ref
    # nothing references the first slot any more: it is re-armed and
    # reused, and its stale frozen contents do not leak into the answer
    del payload
    again = op.solve(2.0 * prob.b)
    assert id(again.x) == slots[0] and again.x.flags.writeable
    assert (again.x.tobytes()
            == CgOperator(prob.A).solve(2.0 * prob.b).x.tobytes())
    # solve_direct overwrites its slot whole: stale contents give the bytes
    # a fresh operator gives
    del again, backup
    direct = op.solve_direct(prob.b)
    assert id(direct.x) == slots[0]
    assert (direct.x.tobytes()
            == CgOperator(prob.A).solve_direct(prob.b).x.tobytes())
