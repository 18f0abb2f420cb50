"""Figure 7: Poisson execution times vs n under 0–max disconnections.

The paper launches the application on 80 of ~100 peers, varies n from 2000
to 5000, injects 0–50 random disconnections (reconnect ≈20 s later),
checkpoints every 5 iterations with 20 backup-peers, and averages 10 runs
per point.  This sweep is the scaled replica: 8 peers of a 12-host pool,
n ∈ {40…128} with the optimal overlap per n, disconnections 0–6 (the same
per-peer disconnection density as 0–50 over 80), averaged over ``repeats``
seeds.

It also derives the paper's in-text claim C2: the max-churn slowdown factor
per n (paper: ×2 at the small end, ×2.5 at the large end — growing only
mildly with n).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exec import RunSpec, SweepEngine
from repro.experiments.driver import RunResult
from repro.experiments.report import format_table

__all__ = ["Figure7Result", "figure7_sweep", "DEFAULT_NS", "DEFAULT_DISCONNECTIONS"]

DEFAULT_NS = (40, 64, 96, 128)
DEFAULT_DISCONNECTIONS = (0, 2, 4, 6)


@dataclass
class Figure7Result:
    """The full sweep: mean times[n][disconnections] plus raw runs."""

    ns: tuple[int, ...]
    disconnections: tuple[int, ...]
    peers: int
    repeats: int
    #: mean simulated execution time per (n, disc) cell
    times: dict[tuple[int, int], float] = field(default_factory=dict)
    runs: list[RunResult] = field(default_factory=list)

    def slowdown(self, n: int) -> float:
        """Max-churn time over churn-free time for one n (claim C2)."""
        base = self.times[(n, self.disconnections[0])]
        worst = self.times[(n, self.disconnections[-1])]
        return worst / base if base else float("nan")

    def format_table(self) -> str:
        headers = ["n", "size"] + [f"disc={d}" for d in self.disconnections] + [
            "slowdown"
        ]
        rows = []
        for n in self.ns:
            row = [n, n * n]
            row += [self.times.get((n, d)) for d in self.disconnections]
            row.append(round(self.slowdown(n), 2))
            rows.append(row)
        return format_table(
            headers,
            rows,
            title=(
                f"Figure 7 (scaled): Poisson execution times [simulated s], "
                f"{self.peers} peers, mean of {self.repeats} run(s)"
            ),
        )


def figure7_sweep(
    ns: tuple[int, ...] = DEFAULT_NS,
    disconnections: tuple[int, ...] = DEFAULT_DISCONNECTIONS,
    peers: int = 8,
    repeats: int = 2,
    base_seed: int = 0,
    horizon: float = 900.0,
    engine: SweepEngine | None = None,
    checkpoint=None,
) -> Figure7Result:
    """Run the whole sweep.  The churn-free run of each (n, seed) also
    provides the churn window for that n (disconnections happen "during
    the execution"): the engine content-addresses that calibration run, so
    it is computed once per (n, seed) and shared by every churn level.

    ``engine`` selects execution: the default is serial and uncached
    (bitwise-identical to the historical in-loop version); pass
    ``SweepEngine(workers=4, cache=RunCache())`` for a process pool with
    the on-disk run cache.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    engine = engine if engine is not None else SweepEngine()
    result = Figure7Result(
        ns=tuple(ns),
        disconnections=tuple(disconnections),
        peers=peers,
        repeats=repeats,
    )
    grid = [
        (n, d, r)
        for n in ns
        for d in disconnections
        for r in range(repeats)
    ]
    runs = engine.map(
        RunSpec(
            n=n,
            peers=peers,
            disconnections=d,
            seed=base_seed + 1000 * r,
            horizon=horizon,
            collect=False,
            checkpoint=checkpoint,
        )
        for (n, d, r) in grid
    )
    cells: dict[tuple[int, int], list[float]] = {}
    for (n, d, _r), run in zip(grid, runs):
        result.runs.append(run)
        if run.converged:
            cells.setdefault((n, d), []).append(run.simulated_time)
    for (n, d), times in cells.items():
        result.times[(n, d)] = sum(times) / len(times)
    return result
