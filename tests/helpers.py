"""Shared test utilities: a deterministic toy Task and run drivers."""

from __future__ import annotations

from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.checkpoint import guardians
from repro.churn import churn_plan
from repro.faults import FaultInjector
from repro.numerics import DECOMPOSITION_CACHE, BlockDecomposition, Poisson2D
from repro.numerics.cg import dst_matrix
from repro.p2p import AppSpec, IterationStep, Task, TaskContext
from repro.util import serialization


def select(tracer, category=None, kind=None, entity=None) -> list:
    """The events ``tracer`` still holds that match every given filter."""
    return [e for e in tracer
            if (category is None or e.category == category)
            and (kind is None or e.kind == kind)
            and (entity is None or e.entity == entity)]


def clear_caches() -> None:
    """Drop the six process-wide caches, so a test (or a timed run) starts
    cold whatever ran before it: shared block decompositions, the DST-I
    matrices, the size walk's per-class memos and the guardian rings."""
    DECOMPOSITION_CACHE.clear()
    dst_matrix.cache_clear()
    serialization._fields_by_class.clear()
    serialization._frozen_by_class.clear()
    serialization._unmemoizable.clear()
    guardians.cache_clear()


class GeometricTask(Task):
    """A toy SPMD task with fully predictable behaviour.

    State is one scalar decaying geometrically: ``x ← rate · x`` from 1.0.
    The (absolute) update distance after iteration k is ``(1-rate)·rate^k``,
    so with threshold t the task goes quiet after a known iteration count.
    Each iteration sends its value to the next task (ring) so messaging and
    freshness accounting are exercised.
    """

    def setup(self, ctx: TaskContext) -> None:
        super().setup(ctx)
        self.rate = float(ctx.params.get("rate", 0.5))
        self.flops = float(ctx.params.get("flops", 1e6))
        self.x = 1.0
        self.seen: dict[int, Any] = {}

    def initial_state(self) -> dict:
        return {"x": 1.0}

    def load_state(self, state: dict) -> None:
        self.x = float(state["x"])

    def dump_state(self) -> dict:
        return {"x": self.x}

    def iterate(self, inbox: dict[int, Any]) -> IterationStep:
        self.seen.update(inbox)
        old = self.x
        self.x *= self.rate
        nxt = (self.ctx.task_id + 1) % self.ctx.num_tasks
        outgoing = {nxt: np.array([self.x])} if self.ctx.num_tasks > 1 else {}
        return IterationStep(
            flops=self.flops,
            outgoing=outgoing,
            local_distance=abs(old - self.x),
        )

    def solution_fragment(self):
        return (self.ctx.task_id, self.x)


def make_geometric_app(
    app_id: str = "geo",
    num_tasks: int = 3,
    rate: float = 0.5,
    flops: float = 1e6,
    threshold: float = 1e-4,
    window: int = 2,
) -> AppSpec:
    return AppSpec(
        app_id=app_id,
        task_factory=GeometricTask,
        num_tasks=num_tasks,
        params={"rate": rate, "flops": flops},
        convergence_threshold=threshold,
        stability_window=window,
    )


def churn_injector(sim, hosts, model, rng, horizon, **kwargs) -> FaultInjector:
    """Churn ``model`` against ``hosts``: its plan on a fault injector."""
    return FaultInjector(sim, churn_plan(model, rng, horizon), rng=rng,
                         hosts=hosts, entity="churn", **kwargs)


def run_until_done(cluster, spawner, horizon: float = 1000.0) -> bool:
    """Drive the simulation until the app converges or the horizon passes."""
    sim = cluster.sim
    sim.run(until=sim.any_of([spawner.done, sim.timeout(horizon)]))
    return spawner.done.triggered


def collect_solution(cluster, spawner) -> dict:
    proc = cluster.sim.process(spawner.collect_solution())
    cluster.sim.run(until=proc)
    return proc.value


def assemble_strip_solution(fragments: dict, size: int) -> np.ndarray:
    """Stitch (offset, values) fragments into a global vector."""
    x = np.full(size, np.nan)
    for frag in fragments.values():
        if frag is None:
            continue
        offset, values = frag
        x[offset : offset + len(values)] = values
    return x


def strip_task(cls, params: dict, task_id: int, num_tasks: int,
               compute=None):
    """A set-up strip task of class ``cls`` in its initial state;
    ``compute`` is the :class:`repro.compute.ComputePlane` it may use."""
    task = cls()
    task.setup(TaskContext("t", task_id, num_tasks, params, compute=compute))
    task.load_state(task.initial_state())
    return task


def poisson_strip(n: int, nblocks: int, overlap: int,
                  index: int | None = None):
    """Strip block ``index`` (default: an interior one) of the ``n x n``
    manufactured Poisson problem: the matrix shape the direct inner solver
    factors."""
    prob = Poisson2D.manufactured(n)
    d = BlockDecomposition(prob.A, prob.b, nblocks=nblocks, line=n,
                           overlap=overlap)
    return d.blocks[nblocks // 2 if index is None else index]


def shifted(A):
    """``A + I/2`` in CSR: banded and SPD like a Poisson strip, but none —
    a :class:`~repro.numerics.CgOperator` hands its solves to
    :func:`~repro.numerics.conjugate_gradient`."""
    return (A.to_scipy() + 0.5 * sp.identity(A.shape[0])).tocsr()
