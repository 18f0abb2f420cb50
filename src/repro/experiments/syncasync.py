"""Claim C4: synchronous vs asynchronous under identical churn.

§1/§8: "synchronous iterations would dramatically slow down the execution
in a dynamic and heterogeneous P2P network ... all the nodes involved in the
computation would stop computing when a single disconnection occurs."

Protocol: run the asynchronous JaceP2P execution with the paper's churn,
record the *exact* disconnection trace the injector executed, then replay
that identical trace against the synchronous (BSP) engine on the same host
population.  Apples to apples: same problem, same hosts, same failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps import make_poisson_app
from repro.baselines import SynchronousEngine
from repro.checkpoint import CheckpointPolicy, FixedPolicy
from repro.churn import PaperChurn, churn_plan
from repro.des import Simulator
from repro.exec import RunSpec, SweepEngine
from repro.experiments.config import (
    EXPERIMENT_CONFIG,
    EXPERIMENT_LINK_SCALE,
    RECONNECT_DELAY,
    optimal_overlap,
)
from repro.experiments.report import format_table
from repro.faults import FaultInjector, FaultPlan
from repro.net.topology import build_testbed
from repro.util.rng import RngTree

__all__ = ["SyncAsyncResult", "sync_vs_async"]


@dataclass
class SyncAsyncResult:
    n: int
    peers: int
    disconnections: int
    async_time: float | None
    sync_time: float | None
    sync_stall_time: float = 0.0
    sync_rollbacks: int = 0
    sync_lost_iterations: int = 0
    trace: tuple = field(default_factory=tuple)

    @property
    def sync_over_async(self) -> float:
        if not self.async_time or not self.sync_time:
            return float("nan")
        return self.sync_time / self.async_time

    def format_table(self) -> str:
        return format_table(
            ["n", "disc", "async time", "sync time", "sync/async",
             "sync stall", "sync rollbacks", "sync lost iters"],
            [[self.n, self.disconnections, self.async_time, self.sync_time,
              round(self.sync_over_async, 2), round(self.sync_stall_time, 2),
              self.sync_rollbacks, self.sync_lost_iterations]],
            title="C4: synchronous vs asynchronous under the identical churn trace",
        )


def sync_vs_async(
    n: int = 64,
    peers: int = 8,
    disconnections: int = 3,
    seed: int = 0,
    horizon: float = 900.0,
    engine: SweepEngine | None = None,
    checkpoint: CheckpointPolicy = FixedPolicy(),
) -> SyncAsyncResult:
    config = EXPERIMENT_CONFIG
    engine = engine if engine is not None else SweepEngine()

    # ---- asynchronous run, recording the executed churn trace -------------
    # (driver-level rerun so we can reach into the injector: replicate the
    # driver's churn wiring here)
    from repro.p2p import build_cluster, launch_application

    # engine-routed: the churn-free window calibration is the same spec the
    # Figure-7 grid's d=0 cell uses, so a shared cache serves it for free
    calibration = engine.run(RunSpec(
        n=n, peers=peers, disconnections=0, seed=seed, config=config,
        horizon=horizon, collect=False, checkpoint=checkpoint,
    ))
    window = calibration.simulated_time or horizon

    cluster = build_cluster(
        n_daemons=peers + max(3, peers // 2), n_superpeers=3, seed=seed,
        config=config, link_scale=EXPERIMENT_LINK_SCALE,
        checkpoint=checkpoint,
    )
    overlap = optimal_overlap(n, peers)
    app = make_poisson_app(
        "poisson", n=n, num_tasks=peers, overlap=overlap,
        convergence_threshold=config.convergence_threshold,
    )
    spawner = launch_application(cluster, app)
    injector = None
    if disconnections > 0:
        churn_rng = RngTree(seed).child("churn")
        model = PaperChurn(disconnections, reconnect_delay=RECONNECT_DELAY)
        injector = FaultInjector(
            cluster.sim, churn_plan(model, churn_rng, window), rng=churn_rng,
            hosts=cluster.testbed.daemon_hosts, entity="churn",
            victim_filter=lambda h: (
                (d := cluster.daemons.get(h.name)) is not None
                and d.runner is not None
            ),
        )
    sim = cluster.sim
    # capture the INITIAL task->host mapping (before any replacement moves
    # tasks to spare machines): the sync baseline runs on exactly these
    while (
        spawner.register.assigned_count() < peers
        and not spawner.done.triggered
        and sim.now < horizon
    ):
        sim.run(until=sim.now + 0.05)
    initial_hosts = [
        (slot.daemon_id or "").rsplit("#", 1)[0]
        for slot in spawner.register.slots
    ]
    sim.run(until=sim.any_of([spawner.done, sim.timeout(horizon)]))
    async_time = spawner.execution_time
    # pinned DaemonCrash actions: exactly what the injector did
    replay = injector.executed_plan() if injector else FaultPlan()

    # ---- synchronous replay on an identical host population ----------------
    sim2 = Simulator()
    testbed2 = build_testbed(
        sim2, n_daemons=peers + max(3, peers // 2), n_superpeers=3,
        rng=RngTree(seed).child("testbed"), link_scale=EXPERIMENT_LINK_SCALE,
    )
    # the sync engine binds tasks to the SAME host names the async app
    # started on, so the replayed disconnections hit its participants
    used_hosts = []
    for name in initial_hosts:
        host = next((h for h in testbed2.daemon_hosts if h.name == name), None)
        used_hosts.append(host)
    fallback = [h for h in testbed2.daemon_hosts if h not in used_hosts]
    hosts2 = [h if h is not None else fallback.pop(0) for h in used_hosts]

    # the sync baseline has no failure feed: it checkpoints at the policy's
    # base cadence
    sync_frequency = checkpoint.frequency
    engine = SynchronousEngine(
        sim2, hosts2, app,
        checkpoint_frequency=sync_frequency,
        convergence_threshold=config.convergence_threshold,
        stability_window=config.stability_window,
        link_model=testbed2.network.link_model,
    )
    if replay:
        FaultInjector(
            sim2, replay,
            rng=RngTree(seed).child("replay"),
            hosts=testbed2.daemon_hosts, entity="churn",
        )
    sim2.run(until=sim2.any_of([engine.done, sim2.timeout(horizon)]))
    sync = engine.result

    return SyncAsyncResult(
        n=n,
        peers=peers,
        disconnections=len(replay),
        async_time=async_time,
        sync_time=sync.converged_at if sync.converged else None,
        sync_stall_time=sync.stall_time,
        sync_rollbacks=sync.rollbacks,
        sync_lost_iterations=sync.lost_iterations,
        trace=replay.actions,
    )
