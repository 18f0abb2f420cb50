"""Claims C1 & C3: iteration counts and the ratio-(4) mechanics vs n.

The paper (§7): "the problem for n = 2000 ... needs on average about 100
iterations to reach the global convergence, whereas for n = 5000, about 40
iterations are necessary.  This obviously shows that the number of
iterations without update is more important with a small problem than with
a larger one."

This experiment measures, per n (no churn):

* mean asynchronous iterations per task to global convergence (C1 —
  must *decrease* as n grows);
* the inflation factor over the synchronous sweep count for the same
  n/overlap — the direct quantification of "iterations that did not make
  the computation progress" (C3);
* the fraction of iterations that received no neighbour message at all
  (the paper's literal "no dependency received" reading).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exec import RunSpec, SweepEngine
from repro.experiments.config import EXPERIMENT_CONFIG, optimal_overlap
from repro.experiments.report import format_table
from repro.numerics import BlockDecomposition, Poisson2D, block_jacobi

__all__ = ["RatioResult", "iterations_vs_n"]

#: the threshold both arms converge to: the runtime's global one, and the
#: synchronous reference's relative residual
TOL = EXPERIMENT_CONFIG.convergence_threshold


@dataclass
class RatioResult:
    ns: tuple[int, ...]
    peers: int
    #: per n: (async iters/task, sync sweeps, inflation, no-message fraction,
    #: simulated time)
    rows: list[tuple[int, float, int, float, float, float]] = field(
        default_factory=list
    )

    def format_table(self) -> str:
        headers = [
            "n", "size", "async iters/task", "sync sweeps",
            "inflation", "no-msg frac", "time",
        ]
        rows = [
            [n, n * n, round(ai, 1), ss, round(infl, 2), round(nomsg, 3),
             round(t, 3)]
            for (n, ai, ss, infl, nomsg, t) in self.rows
        ]
        return format_table(
            headers, rows,
            title="C1/C3: iterations to convergence vs n (no churn)",
        )

    def async_iters(self) -> list[float]:
        return [r[1] for r in self.rows]

    def inflations(self) -> list[float]:
        return [r[3] for r in self.rows]


def iterations_vs_n(
    ns: tuple[int, ...] = (40, 64, 96, 128),
    peers: int = 8,
    seed: int = 0,
    horizon: float = 900.0,
    engine: SweepEngine | None = None,
    checkpoint=None,
) -> RatioResult:
    engine = engine if engine is not None else SweepEngine()
    result = RatioResult(ns=tuple(ns), peers=peers)
    runs = engine.map(
        RunSpec(
            n=n, peers=peers, seed=seed, overlap=optimal_overlap(n, peers),
            convergence_threshold=TOL, horizon=horizon, collect=False,
            checkpoint=checkpoint,
        )
        for n in ns
    )
    for n, run in zip(ns, runs):
        overlap = optimal_overlap(n, peers)
        prob = Poisson2D.manufactured(n)
        decomp = BlockDecomposition(prob.A, prob.b, nblocks=peers, line=n,
                                    overlap=overlap)
        sync = block_jacobi(decomp, tol=TOL, max_outer=20_000)
        inflation = (
            run.mean_iterations_per_task / sync.outer_iterations
            if sync.outer_iterations
            else float("nan")
        )
        result.rows.append(
            (
                n,
                run.mean_iterations_per_task,
                sync.outer_iterations,
                inflation,
                run.useless_fraction,
                run.simulated_time if run.simulated_time else float("nan"),
            )
        )
    return result
