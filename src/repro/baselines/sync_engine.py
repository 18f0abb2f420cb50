"""Synchronous (BSP) baseline engine.

Runs the *same* Task objects as the asynchronous runtime, but in lockstep
supersteps on the same simulated hosts:

1. every task iterates once on the freshest data — which, synchronously, is
   always the neighbours' previous-superstep output;
2. the superstep lasts as long as the *slowest* participant's compute plus
   the message exchange (the barrier);
3. if any participating host is offline at the barrier (or failed during
   the superstep), the whole computation **stalls** until the machine
   returns, then *every* task rolls back to the last coordinated checkpoint
   — the synchronous model needs a consistent global state, so one failure
   costs everyone their progress since that checkpoint.

This is the §1 argument made executable: under churn, the synchronous model
pays (stall + global rollback) per disconnection, where JaceP2P pays only
one task's local rollback while everyone else keeps computing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.convergence import LocalConvergenceDetector
from repro.des import Simulator
from repro.net.host import BASE_FLOPS, Host
from repro.net.link import LinkModel, UniformLinkModel
from repro.p2p.messages import AppSpec
from repro.p2p.task import Task, TaskContext
from repro.util.serialization import clone_state, measured_size

__all__ = ["SynchronousEngine", "SyncResult"]


@dataclass
class SyncResult:
    """Outcome of a synchronous run."""

    converged: bool
    converged_at: float | None
    supersteps: int
    stall_time: float = 0.0
    rollbacks: int = 0
    lost_iterations: int = 0  # superstep-work discarded by rollbacks, summed over tasks
    fragments: dict[int, Any] = field(default_factory=dict)


class SynchronousEngine:
    """BSP execution of an :class:`~repro.p2p.messages.AppSpec`."""

    def __init__(
        self,
        sim: Simulator,
        hosts: list[Host],
        app: AppSpec,
        checkpoint_frequency: int = 5,
        convergence_threshold: float = 1e-6,
        stability_window: int = 3,
        link_model: LinkModel | None = None,
        barrier_overhead: float = 0.002,
        stall_poll: float = 0.5,
        max_supersteps: int = 1_000_000,
    ):
        if len(hosts) < app.num_tasks:
            raise ValueError("need one host per task")
        if checkpoint_frequency < 1:
            raise ValueError("checkpoint_frequency must be >= 1")
        self.sim = sim
        self.hosts = hosts[: app.num_tasks]
        self.app = app
        self.checkpoint_frequency = checkpoint_frequency
        self.threshold, self.window = app.convergence(
            convergence_threshold, stability_window)
        self.link_model = link_model or UniformLinkModel()
        self.barrier_overhead = barrier_overhead
        self.stall_poll = stall_poll
        self.max_supersteps = max_supersteps
        self.result = SyncResult(converged=False, converged_at=None, supersteps=0)
        self.done = sim.event(name=f"sync:{app.app_id}:done")
        sim.process(self._run(), label=f"sync:{app.app_id}")

    # -- the superstep loop ---------------------------------------------------

    def _run(self):
        app = self.app
        tasks: list[Task] = []
        detectors: list[LocalConvergenceDetector] = []
        for k in range(app.num_tasks):
            task = app.task_factory()
            task.setup(TaskContext(app.app_id, k, app.num_tasks, app.params))
            task.load_state(task.initial_state())
            tasks.append(task)
            detectors.append(
                LocalConvergenceDetector(self.threshold, self.window)
            )
        pending: dict[int, dict[int, Any]] = {k: {} for k in range(app.num_tasks)}
        checkpoint = [clone_state(t.dump_state()) for t in tasks]
        checkpoint_step = 0
        superstep = 0

        while superstep < self.max_supersteps:
            stall = yield from self._wait_all_online()
            self.result.stall_time += stall
            fail_counts = [h.fail_count for h in self.hosts]
            start = self.sim.now

            # compute phase: every task iterates on last superstep's data
            inboxes = pending
            pending = {k: {} for k in range(app.num_tasks)}
            durations = []
            bytes_out = []
            for k, task in enumerate(tasks):
                step = task.iterate(inboxes[k])
                for dst, payload in step.outgoing.items():
                    pending[dst][k] = payload
                durations.append(step.flops / (self.hosts[k].speed * BASE_FLOPS))
                bytes_out.append(
                    sum(measured_size(p) for p in step.outgoing.values())
                )
                detectors[k].update(step.local_distance)

            # barrier: slowest compute + slowest exchange
            comm = 0.0
            for k in range(app.num_tasks):
                if bytes_out[k]:
                    nb = (k + 1) % app.num_tasks
                    comm = max(
                        comm,
                        self.link_model.delay(self.hosts[k], self.hosts[nb], bytes_out[k]),
                    )
            yield self.sim.timeout(max(durations) + comm + self.barrier_overhead)

            # did anyone die during the superstep? then its results are lost
            if any(
                h.fail_count != fc or not h.online
                for h, fc in zip(self.hosts, fail_counts)
            ):
                self._trace("sync_superstep_aborted", superstep=superstep)
                stall = yield from self._wait_all_online()
                self.result.stall_time += stall
                # global rollback: EVERY task returns to the coordinated
                # checkpoint, losing (superstep - checkpoint_step) sweeps each
                for task, snap in zip(tasks, checkpoint):
                    task.load_state(clone_state(snap))
                for det in detectors:
                    det.reset()
                self.result.rollbacks += 1
                self.result.lost_iterations += (
                    (superstep - checkpoint_step) * app.num_tasks
                )
                pending = {k: {} for k in range(app.num_tasks)}
                superstep = checkpoint_step
                continue

            superstep += 1
            self.result.supersteps = superstep
            if superstep % self.checkpoint_frequency == 0:
                checkpoint = [clone_state(t.dump_state()) for t in tasks]
                checkpoint_step = superstep

            if all(det.stable for det in detectors):
                self.result.converged = True
                self.result.converged_at = self.sim.now
                self.result.fragments = {
                    k: tasks[k].solution_fragment() for k in range(app.num_tasks)
                }
                self._trace("sync_converged", supersteps=superstep)
                self.done.succeed(self.result)
                return self.result

        self.done.succeed(self.result)
        return self.result

    def _wait_all_online(self):
        """Block until every participating host is online; returns the
        stall duration (the synchronous model's Achilles heel)."""
        start = self.sim.now
        while not all(h.online for h in self.hosts):
            yield self.sim.timeout(self.stall_poll)
        return self.sim.now - start

    def _trace(self, kind: str, **attrs) -> None:
        tr = self.sim.tracer
        if tr.enabled:
            tr.emit(self.sim.now, "baselines", f"sync:{self.app.app_id}", kind,
                    **attrs)
