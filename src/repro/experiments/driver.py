"""The single-run driver: one Poisson execution on the P2P runtime.

The unit of work is a :class:`~repro.exec.spec.RunSpec`: :func:`execute_spec`
assembles a cluster, launches the paper's application, optionally injects
churn (the paper's random disconnections of computing peers) and/or a
:class:`~repro.faults.FaultPlan` scenario, drives the simulation to global
convergence and returns a fully populated :class:`RunResult`.  Callers go
through ``RunSpec(...).run(tracer=None)`` (in-process) or
``RunSpec.execute()`` (honours ``traced=``); both land here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.apps import make_poisson_app
from repro.apps.strip import problem_decomposition
from repro.churn import PaperChurn, churn_plan
from repro.errors import ConfigurationError
from repro.exec.spec import RunSpec
from repro.faults import FaultInjector
from repro.numerics import Poisson2D
from repro.obs import RunReport, Tracer, build_run_report
from repro.p2p import build_cluster, launch_application, launch_standby
from repro.util.rng import RngTree

__all__ = ["RunResult", "execute_spec", "RUN_COUNTER"]


class _RunCounter:
    """Counts driver executions in this process.

    The sweep engine's cache tests assert "a cache hit performs zero
    simulation work" against this counter.  Per-process: pool workers
    count their own runs.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def bump(self) -> None:
        self.count += 1


RUN_COUNTER = _RunCounter()


@dataclass
class RunResult:
    """Everything one experiment run reports."""

    n: int
    peers: int
    disconnections_requested: int
    disconnections_executed: int
    seed: int
    overlap: int
    converged: bool
    simulated_time: float | None
    total_iterations: int
    mean_iterations_per_task: float
    useless_fraction: float
    residual: float | None
    recoveries: int
    restarts_from_zero: int
    replacements: int
    checkpoints_sent: int
    data_messages: int
    #: fault-plane actions executed (0 for runs without a fault plan)
    faults_executed: int = 0
    #: data payloads corrupted in transit by the fault plane
    messages_corrupted: int = 0
    #: standby promotions during the run (0 or 1; docs/gossip.md)
    takeovers: int = 0
    #: simulated time of the standby promotion (None without one)
    takeover_at: float | None = None
    #: iterations re-executed after recoveries (beyond the converged
    #: per-task frontier) — the re-work half of the wasted-work metric
    wasted_iterations: int = 0
    #: Backup payload bytes shipped to guardians — the bandwidth half
    checkpoint_bytes: int = 0
    #: boundary components discarded by the corruption filter
    components_rejected: int = 0
    #: Backups refused at recovery by the plausibility screen
    checkpoints_rejected: int = 0
    #: populated only when the run was traced (``tracer=`` argument)
    run_report: RunReport | None = field(default=None, compare=False)

    def row(self) -> dict:
        return {
            "n": self.n,
            "size": self.n * self.n,
            "disc": self.disconnections_executed,
            "time": self.simulated_time,
            "iters/task": round(self.mean_iterations_per_task, 1),
            "useless": round(self.useless_fraction, 3),
            "residual": self.residual,
            "recoveries": self.recoveries,
        }

    def to_dict(self) -> dict:
        """Lossless JSON-ready dump (inverse of :meth:`from_dict`).

        The sweep engine ships results across process boundaries and the
        run cache stores them on disk in exactly this form; floats survive
        bit-for-bit (JSON round-trips Python floats exactly via repr).
        """
        out = {
            f.name: getattr(self, f.name)
            for f in self.__dataclass_fields__.values()
            if f.name != "run_report"
        }
        out["run_report"] = (
            self.run_report.to_dict() if self.run_report is not None else None
        )
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        data = dict(data)
        if data.get("run_report") is not None:
            data["run_report"] = RunReport.from_dict(data["run_report"])
        return cls(**data)


def execute_spec(spec: RunSpec, tracer: Tracer | None = None) -> RunResult:
    """Execute one :class:`RunSpec`: the body behind ``RunSpec.run``.

    With churn requested and ``churn_window`` None, a fault-free calibration
    run with the same parameters measures the window first — mirroring the
    paper, which disconnects peers "during the execution".
    """
    RUN_COUNTER.bump()
    if spec.peers < 1:
        raise ConfigurationError("peers must be >= 1")
    if spec.disconnections < 0:
        raise ConfigurationError("disconnections must be >= 0")
    spec = spec.normalized()

    if spec.needs_calibration():
        calibration = execute_spec(spec.calibration_spec())
        if not calibration.converged:
            return calibration
        spec = replace(spec, churn_window=calibration.simulated_time)

    if spec.gossip or spec.standby:
        # the spec-level switches resolve into config flags here, so a
        # gossip-off spec's config (and every legacy caller) is untouched
        spec = replace(spec, config=spec.config.with_(
            gossip_enabled=True, standby_enabled=spec.standby,
        ))

    cluster = build_cluster(
        n_daemons=spec.n_daemons,
        n_superpeers=spec.n_superpeers,
        seed=spec.seed,
        config=spec.config,
        link_scale=spec.link_scale,
        tracer=tracer,
        checkpoint=spec.checkpoint,
    )
    app = make_poisson_app(
        "poisson",
        n=spec.n,
        num_tasks=spec.peers,
        overlap=spec.overlap,
        convergence_threshold=spec.convergence_threshold,
        warm_start=spec.warm_start,
        inner_tol=spec.inner_tol,
        inner_max_iter=spec.inner_max_iter,
        reject_corruption=spec.reject_corruption,
    )
    spawner = launch_application(cluster, app)
    standby = None
    if spec.standby:
        standby = launch_standby(cluster, app, spawner)

    def computing(host) -> bool:
        daemon = cluster.daemons.get(host.name)
        return daemon is not None and daemon.runner is not None

    injector = None
    if spec.disconnections > 0:
        model = PaperChurn(
            n_disconnections=spec.disconnections,
            reconnect_delay=spec.reconnect_delay,
        )
        churn_rng = RngTree(spec.seed).child("churn")
        injector = FaultInjector(
            cluster.sim,
            churn_plan(model, churn_rng, spec.churn_window),
            rng=churn_rng,
            hosts=cluster.testbed.daemon_hosts,
            entity="churn",
            victim_filter=computing,
        )

    fault_injector = None
    if spec.faults:
        # a second instance, not a merged plan: its "faults" RNG stream must
        # stay apart from "churn" or seeded victims would move
        fault_injector = FaultInjector(
            cluster.sim,
            spec.faults,
            rng=RngTree(spec.seed).child("faults"),
            cluster=cluster,
            victim_filter=computing,
        )

    sim = cluster.sim
    waiters = [spawner.done]
    if standby is not None:
        waiters.append(standby.done)
    waiters.append(sim.timeout(spec.horizon))
    sim.run(until=sim.any_of(waiters))
    # after a takeover the PROMOTED spawner owns the run: its done event,
    # register and runtime are the live ones (the primary's host is dead)
    final = spawner
    if standby is not None and standby.promoted and standby.spawner is not None:
        final = standby.spawner
    converged = final.done.triggered
    if fault_injector is not None:
        # stop injecting: pending actions must not disturb collection
        fault_injector.cancel()

    residual = None
    if spec.collect and converged:
        proc = sim.process(final.collect_solution())
        sim.run(until=proc)
        x = np.zeros(spec.n * spec.n)
        missing = False
        for frag in proc.value.values():
            if frag is None:
                missing = True
                continue
            offset, values = frag
            x[offset : offset + len(values)] = values
        if not missing:
            # the tasks just filled the decomposition memo: its global
            # system is the one they solved
            decomp = problem_decomposition("poisson", "manufactured", spec.n,
                                           spec.peers, spec.overlap)
            residual = Poisson2D(spec.n, decomp.A, decomp.b).residual_norm(x)

    telemetry = cluster.telemetry
    # Halts record each task's frontier, but a run that stops at convergence
    # never delivers them: record what every unhalted runner of the app
    # reached (the newest epoch wins when a superseded one still runs).
    live = sorted((r for r in (d.runner for d in cluster.daemons.values())
                   if r is not None and r.app_id == app.app_id
                   and not r.halted), key=lambda r: r.epoch)
    for runner in live:
        telemetry.frontier[runner.task_id] = runner.iteration
    spawners = list(cluster.spawners)
    if final is not spawner:
        spawners.append(final)
    run_report = None
    if tracer is not None:
        run_report = build_run_report(
            telemetry=telemetry,
            network=cluster.network,
            tracer=tracer,
            spawners=spawners,
            superpeers=cluster.superpeers,
            app_id=app.app_id,
            fault_injector=fault_injector,
        )
    return RunResult(
        n=spec.n,
        peers=spec.peers,
        disconnections_requested=spec.disconnections,
        disconnections_executed=len(injector.executed) if injector else 0,
        seed=spec.seed,
        overlap=spec.overlap,
        converged=converged,
        simulated_time=final.execution_time,
        total_iterations=telemetry.total_iterations,
        mean_iterations_per_task=telemetry.mean_task_iterations,
        useless_fraction=telemetry.useless_fraction,
        residual=residual,
        recoveries=len(telemetry.recoveries),
        restarts_from_zero=telemetry.restarts_from_zero,
        replacements=sum(s.replacements for s in spawners),
        checkpoints_sent=telemetry.checkpoints_sent,
        data_messages=telemetry.data_messages_sent,
        faults_executed=len(fault_injector.executed) if fault_injector else 0,
        messages_corrupted=fault_injector.corrupted if fault_injector else 0,
        takeovers=1 if (standby is not None and standby.promoted) else 0,
        takeover_at=standby.takeover_at if standby is not None else None,
        wasted_iterations=telemetry.wasted_iterations,
        checkpoint_bytes=telemetry.checkpoint_bytes,
        components_rejected=telemetry.components_rejected,
        checkpoints_rejected=telemetry.checkpoints_rejected,
        run_report=run_report,
    )
