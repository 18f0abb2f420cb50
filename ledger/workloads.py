"""The five workloads: sizes, set-up, timed region, verification, counters.

Each workload is a function ``(seed, size, timed) -> stats``.  Everything
before ``with timed:`` is set-up, the body of the ``with`` is the timed (and,
in a traced run, profiled) region, and what follows reads the public counters
and verifies the outputs.  ``seed`` feeds ``RunSpec.seed`` /
``build_cluster(seed=)``; the program sees only the generated inputs.

``stats`` holds ``ops``/``failed_ops``, ``sim_s`` (with ``sim_cells``, its
exact terms), ``steps`` (the unit of simulated work ``wall_us_per_step``
divides by) and ``counts``, the per-layer counters the workload can reach.
All of it is a pure function of the seed: the worker digests it.  The swarm
workloads add ``knobs_applied``, the non-default config fields they set.

Only the surviving public surface is driven (``RunSpec``, ``SweepEngine``,
``figure7_sweep``, ``build_cluster``/``launch_application``,
``make_poisson_app``, ``repro.experiments.config``): no ``repro.util.hotpath``,
no ``compute.direct_mode``, no ``use_cache=False``, no deprecated shim.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.apps import make_poisson_app
from repro.exec import RunSpec, SweepEngine
from repro.experiments.config import (EXPERIMENT_CONFIG, EXPERIMENT_LINK_SCALE,
                                      optimal_overlap)
from repro.experiments.figure7 import figure7_sweep
from repro.numerics import Poisson2D
from repro.p2p import build_cluster, launch_application

#: a converged run whose assembled solution misses this is a failed operation
MAX_RESIDUAL = 1e-3

#: simulated seconds a hand-assembled application run may take (the
#: ``RunSpec`` default, which the driver-run workloads get)
HORIZON = 900.0

#: the swarm topology: 32 leaf Super-Peers under fanout-8 interior tiers,
#: heartbeats on the kernel timer wheel
SWARM_KNOBS = dict(superpeer_tiers=3, superpeer_fanout=8,
                   heartbeat_mode="wheel")
SWARM_LEAVES = 32


def apply_knobs(config, **knobs):
    """``config`` with the non-default ``knobs`` that ``P2PConfig`` still has.

    A later change that collapses a knob to its one surviving path changes
    the recorded ``knobs_applied`` line, not this file."""
    known = {f.name for f in dataclasses.fields(config)}
    kept = {k: v for k, v in knobs.items() if k in known}
    return config.with_(**kept), [f"{k}={kept[k]!r}" for k in sorted(kept)]


def _run_counts(runs) -> dict:
    """The ``RunResult`` subset of the per-layer counters, summed over runs."""
    iterations = sum(r.total_iterations for r in runs)
    return {
        "p2p.iterations": iterations,
        "p2p.useless_fraction": sum(
            r.useless_fraction * r.total_iterations for r in runs) / iterations,
        "p2p.data_messages": sum(r.data_messages for r in runs),
        "p2p.recoveries": sum(r.recoveries for r in runs),
        "p2p.restarts_from_zero": sum(r.restarts_from_zero for r in runs),
        "p2p.replacements": sum(r.replacements for r in runs),
        "checkpoint.saves": sum(r.checkpoints_sent for r in runs),
        "checkpoint.bytes": sum(r.checkpoint_bytes for r in runs),
        "checkpoint.wasted_iterations": sum(r.wasted_iterations for r in runs),
        "churn.disconnections_executed": sum(
            r.disconnections_executed for r in runs),
    }


def _cluster_counts(cluster) -> dict:
    """Per-layer counters of a hand-assembled deployment."""
    sim, net, tel = cluster.sim, cluster.network.stats(), cluster.telemetry
    entities = [*cluster.superpeers, *cluster.daemons.values(),
                *cluster.spawners]
    agents = [a for a in (getattr(e, "gossip", None) for e in entities)
              if a is not None]
    compute = cluster.compute.stats()
    counts = {
        "des.events": sim.event_count,
        "des.batched_calls": sim.batched_calls,
        "des.wheel_timers_fired": (
            cluster.wheel.timers_fired if cluster.wheel is not None else None),
        "net.sent": net["sent"],
        "net.delivered": net["delivered"],
        "net.dropped": sum(v for k, v in net.items() if k.startswith("dropped_")),
        "net.bytes_sent": net["bytes_sent"],
        "rmi.calls_sent": sum(e.runtime.calls_sent for e in entities),
        "rmi.oneways_sent": sum(e.runtime.oneways_sent for e in entities),
        "rmi.oneway_errors": sum(e.runtime.oneway_errors for e in entities),
        "p2p.registered": sum(
            sp.registered_count() for sp in cluster.leaf_superpeers),
    }
    if cluster.spawners:
        counts.update({
            "p2p.iterations": tel.total_iterations,
            "p2p.useless_fraction": tel.useless_fraction,
            "p2p.data_messages": tel.data_messages_sent,
            "p2p.recoveries": len(tel.recoveries),
            "p2p.restarts_from_zero": tel.restarts_from_zero,
            "p2p.replacements": sum(s.replacements for s in cluster.spawners),
            "checkpoint.saves": tel.checkpoints_sent,
            "checkpoint.bytes": tel.checkpoint_bytes,
            "checkpoint.wasted_iterations": tel.wasted_iterations,
        })
        counts.update({
            f"compute.{k}": compute[k]
            for k in ("cohorts", "flushes", "deferred", "memo_hits",
                      "batched_columns", "loop_columns")
        })
    if agents:
        counts.update({
            f"gossip.{k}": sum(getattr(a, k) for a in agents)
            for k in ("pushes_sent", "pushes_received", "hellos_received",
                      "rumors_merged")
        })
    return counts


def _useful_iterations(counts: dict) -> int:
    """Iterations that consumed fresh neighbour data and so ran an inner
    solve; a useless one hits the solve memo and costs the host almost
    nothing, so on solver-bound workloads these are the unit of work."""
    return round(counts["p2p.iterations"]
                 * (1.0 - counts["p2p.useless_fraction"]))


def _failed_run(run) -> bool:
    return (not run.converged
            or (run.residual is not None and run.residual > MAX_RESIDUAL))


def fig7_column(seed, size, timed):
    engine = SweepEngine(workers=1)
    with timed:
        result = figure7_sweep(
            ns=(size["n"],), disconnections=size["disconnections"],
            peers=size["peers"], repeats=1, base_seed=seed, engine=engine)
    runs = result.runs
    cells = [r.simulated_time for r in runs]
    counts = _run_counts(runs)
    counts["exec.runs_executed"] = engine.stats["runs_executed"]
    counts["exec.memo_hits"] = engine.stats["memo_hits"]
    if all(r.converged for r in runs):
        counts["experiments.churn_slowdown"] = result.slowdown(size["n"])
    return {
        "ops": len(runs),
        "failed_ops": sum(map(_failed_run, runs)),
        "sim_cells": cells,
        "steps": _useful_iterations(counts),
        "counts": counts,
    }


def direct16(seed, size, timed):
    n, peers = size["n"], size["peers"]
    cluster = build_cluster(
        n_daemons=size["daemons"], n_superpeers=3, seed=seed,
        config=EXPERIMENT_CONFIG, link_scale=EXPERIMENT_LINK_SCALE)
    app = make_poisson_app(
        "poisson", n=n, num_tasks=peers, overlap=optimal_overlap(n, peers),
        inner_solver="direct", convergence_threshold=1e-6)
    sim = cluster.sim
    fragments = {}
    with timed:
        spawner = launch_application(cluster, app)
        sim.run(until=sim.any_of([spawner.done, sim.timeout(HORIZON)]))
        if spawner.done.triggered:
            collect = sim.process(spawner.collect_solution())
            sim.run(until=collect)
            fragments = collect.value
    counts = _cluster_counts(cluster)
    failed = 1
    if fragments and None not in fragments.values():
        x = np.zeros(n * n)
        for offset, values in fragments.values():
            x[offset:offset + len(values)] = values
        residual = float(Poisson2D.manufactured(n).residual_norm(x))
        counts["numerics.residual"] = residual
        failed = int(residual > MAX_RESIDUAL)
    return {
        "ops": 1,
        "failed_ops": failed,
        "sim_cells": [spawner.execution_time],
        "steps": _useful_iterations(counts),
        "counts": counts,
    }


def smallblock_churn(seed, size, timed):
    spec = RunSpec(n=size["n"], peers=size["peers"],
                   disconnections=size["disconnections"], churn_window=1.0,
                   seed=seed, collect=True)
    with timed:
        run = spec.run()
    counts = _run_counts([run])
    counts["numerics.residual"] = run.residual
    return {
        "ops": 1,
        "failed_ops": int(_failed_run(run) or run.residual is None),
        "sim_cells": [run.simulated_time],
        "steps": run.total_iterations,
        "counts": counts,
    }


def _swarm(seed, size, timed, **extra_knobs):
    config, knobs = apply_knobs(EXPERIMENT_CONFIG, **SWARM_KNOBS, **extra_knobs)
    cluster = build_cluster(
        n_daemons=size["daemons"], n_superpeers=SWARM_LEAVES, seed=seed,
        config=config, link_scale=EXPERIMENT_LINK_SCALE)
    with timed:
        cluster.sim.run(until=size["window"])
    counts = _cluster_counts(cluster)
    return {
        "ops": size["daemons"],
        "failed_ops": size["daemons"] - counts["p2p.registered"],
        "sim_cells": [size["window"]],
        "steps": counts["des.events"],
        "counts": counts,
        "knobs_applied": knobs,
    }


def swarm_idle(seed, size, timed):
    return _swarm(seed, size, timed)


def swarm_gossip(seed, size, timed):
    return _swarm(seed, size, timed, gossip_enabled=True)


@dataclasses.dataclass(frozen=True)
class Workload:
    run: object
    why: str
    #: what one ``step`` of ``wall_us_per_step`` is
    step: str
    full: dict
    quick: dict

    def size(self, quick: bool) -> dict:
        return self.quick if quick else self.full


WORKLOADS = {
    "fig7_column": Workload(
        fig7_column,
        "the paper's headline experiment through the API a user calls: one "
        "Figure 7 column, inner sparse CG does the work (numerics-bound)",
        "useful task iteration",
        full=dict(n=128, peers=8, disconnections=(0, 2, 4, 6)),
        quick=dict(n=96, peers=8, disconnections=(0, 4)),
    ),
    "direct16": Workload(
        direct16,
        "the numerics layer used the other way: cached-LU direct solves "
        "through repro.compute instead of iterative CG (compute-bound)",
        "useful task iteration",
        full=dict(n=256, peers=16, daemons=24),
        quick=dict(n=256, peers=8, daemons=12),
    ),
    "smallblock_churn": Workload(
        smallblock_churn,
        "tiny blocks under heavy churn: the runtime, not the solver, is the "
        "majority, and checkpoints are restored, not only saved",
        "task iteration",
        full=dict(n=64, peers=16, disconnections=8),
        quick=dict(n=40, peers=10, disconnections=5),
    ),
    "swarm_idle": Workload(
        swarm_idle,
        "the control plane with no computing peers: bootstrap storm and "
        "tiered heartbeats (des/net/rmi-bound); owns peak_rss_mb and setup_s",
        "kernel event",
        full=dict(daemons=8000, window=10.0),
        quick=dict(daemons=8000, window=2.5),
    ),
    "swarm_gossip": Workload(
        swarm_gossip,
        "the same des/net/rmi stack driven by the epidemic plane instead of "
        "heartbeats (gossip/util-bound)",
        "kernel event",
        full=dict(daemons=500, window=3.0),
        quick=dict(daemons=250, window=2.0),
    ),
}
