"""Design-choice ablations A1–A4 (see DESIGN.md's per-experiment index).

* A1 — checkpoint frequency (the JaceSave knob; paper uses 5): total time
  and rollback distance vs k, under fixed churn.
* A2 — number of backup-peers (paper uses 20): probability of a
  restart-from-zero and total time vs the count, under heavy churn.
* A3 — overlap (the §6 technique): synchronous sweep count and exchanged
  volume vs the overlap, demonstrating "iterations drop, exchanged data
  constant".
* A4 — bootstrap & failure-detection scaling: registration latency vs the
  Daemon population, and detection delay vs the heartbeat timeout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.checkpoint import FixedPolicy
from repro.exec import RunSpec, SweepEngine
from repro.experiments.config import EXPERIMENT_CONFIG, EXPERIMENT_LINK_SCALE
from repro.experiments.report import format_table
from repro.numerics import BlockDecomposition, Poisson2D, block_jacobi
from repro.p2p import build_cluster

#: A4's Super-Peer count
BOOTSTRAP_SUPERPEERS = 3

__all__ = [
    "checkpoint_frequency_ablation",
    "backup_count_ablation",
    "overlap_ablation",
    "bootstrap_scaling",
]


@dataclass
class AblationTable:
    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)

    def format_table(self) -> str:
        return format_table(self.headers, self.rows, title=self.title)


def checkpoint_frequency_ablation(
    frequencies=(1, 2, 5, 10, 20),
    n: int = 64,
    peers: int = 8,
    disconnections: int = 3,
    seed: int = 0,
    engine: SweepEngine | None = None,
) -> AblationTable:
    """A1: total time, checkpoint traffic and recovery distance vs k."""
    engine = engine if engine is not None else SweepEngine()
    table = AblationTable(
        title=f"A1: checkpoint frequency (n={n}, {disconnections} disconnections)",
        headers=["k", "time", "checkpoints sent", "recoveries",
                 "restarts@0", "residual ok"],
    )
    runs = engine.map(
        RunSpec(
            n=n, peers=peers, disconnections=disconnections, seed=seed,
            checkpoint=FixedPolicy(frequency=k),
        )
        for k in frequencies
    )
    for k, run in zip(frequencies, runs):
        table.rows.append([
            k,
            run.simulated_time,
            run.checkpoints_sent,
            run.recoveries,
            run.restarts_from_zero,
            run.residual is not None and run.residual < 1e-3,
        ])
    return table


def backup_count_ablation(
    counts=(0, 1, 2, 4, 7),
    n: int = 48,
    peers: int = 8,
    disconnections: int = 5,
    seeds=(0, 1, 2),
    engine: SweepEngine | None = None,
) -> AblationTable:
    """A2: survival of checkpoints vs the number of backup-peers.

    Heavy churn; a restart-from-zero happens when every guardian of a task
    has failed (or nobody guards it at all, count=0).
    """
    engine = engine if engine is not None else SweepEngine()
    table = AblationTable(
        title=f"A2: backup-peer count (n={n}, {disconnections} disconnections, "
              f"{len(seeds)} seeds)",
        headers=["backup peers", "mean time", "recoveries",
                 "restarts@0", "restart@0 rate"],
    )
    grid = [(count, seed) for count in counts for seed in seeds]
    runs = dict(zip(grid, engine.map(
        RunSpec(
            n=n, peers=peers, disconnections=disconnections, seed=seed,
            checkpoint=FixedPolicy(count=count, frequency=2),
            collect=False,
        )
        for (count, seed) in grid
    )))
    for count in counts:
        times, recov, scratch = [], 0, 0
        for seed in seeds:
            run = runs[(count, seed)]
            if run.converged:
                times.append(run.simulated_time)
            recov += run.recoveries
            scratch += run.restarts_from_zero
        table.rows.append([
            count,
            sum(times) / len(times) if times else None,
            recov,
            scratch,
            round(scratch / recov, 3) if recov else 0,
        ])
    return table


def overlap_ablation(
    overlaps=(0, 1, 2, 3, 4),
    n: int = 64,
    peers: int = 8,
) -> AblationTable:
    """A3: sweeps drop with overlap while the exchanged volume is constant."""
    table = AblationTable(
        title=f"A3: overlapping components (n={n}, {peers} blocks, sync sweeps)",
        headers=["overlap", "sweeps", "sent per iter (inner block)",
                 "flops total"],
    )
    prob = Poisson2D.manufactured(n)
    for o in overlaps:
        decomp = BlockDecomposition(prob.A, prob.b, nblocks=peers, line=n,
                                    overlap=o)
        run = block_jacobi(decomp, tol=EXPERIMENT_CONFIG.convergence_threshold,
                           max_outer=20_000)
        table.rows.append([
            o,
            run.outer_iterations,
            decomp.exchange_volume(peers // 2),
            run.flops_total,
        ])
    return table


def bootstrap_scaling(
    populations=(10, 25, 50, 100),
    seed: int = 0,
) -> AblationTable:
    """A4: time for the whole Daemon population to register, per size, with
    :data:`BOOTSTRAP_SUPERPEERS` Super-Peers."""
    table = AblationTable(
        title=f"A4: bootstrap scaling ({BOOTSTRAP_SUPERPEERS} super-peers)",
        headers=["daemons", "all registered by", "per-SP max load"],
    )
    for pop in populations:
        cluster = build_cluster(
            n_daemons=pop, n_superpeers=BOOTSTRAP_SUPERPEERS, seed=seed,
            config=EXPERIMENT_CONFIG, link_scale=EXPERIMENT_LINK_SCALE,
        )
        sim = cluster.sim
        deadline = 60.0
        while sim.now < deadline and cluster.registered_daemons() < pop:
            sim.run(until=sim.now + 0.05)
        table.rows.append([
            pop,
            round(sim.now, 3) if cluster.registered_daemons() >= pop else None,
            max(len(sp.register) for sp in cluster.superpeers),
        ])
    return table
