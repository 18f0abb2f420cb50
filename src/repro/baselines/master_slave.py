"""The master–slave ("Desktop Grid / Global Computing") baseline.

Cycle-stealing environments distribute *independent* work units from a
master to slaves; slaves cannot talk to each other.  This scheduler makes
the paper's §1 limitation executable:

* a bag of independent tasks runs fine (with retry-on-failure, the classic
  desktop-grid fault model);
* an application whose tasks emit inter-task messages is **rejected** with
  :class:`~repro.errors.NotSupportedError` — the reason iterative
  applications with computing dependencies need JaceP2P at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.convergence import LocalConvergenceDetector
from repro.des import Simulator
from repro.errors import NotSupportedError
from repro.net.host import BASE_FLOPS, Host
from repro.p2p.messages import AppSpec
from repro.p2p.task import Task, TaskContext

__all__ = ["MasterSlaveScheduler", "MasterSlaveResult"]


@dataclass
class MasterSlaveResult:
    """Outcome of a master–slave run."""

    completed: bool
    finished_at: float | None
    results: dict[int, Any] = field(default_factory=dict)
    retries: int = 0


class MasterSlaveScheduler:
    """Runs an AppSpec's tasks as an independent bag of work.

    Each work unit = run one task to *local* convergence in isolation
    (there are no neighbours to talk to).  A slave failure re-queues the
    unit from scratch on the next free slave — desktop grids have no
    inter-slave checkpointing.
    """

    def __init__(
        self,
        sim: Simulator,
        slaves: list[Host],
        app: AppSpec,
        convergence_threshold: float = 1e-6,
        stability_window: int = 3,
        max_iterations_per_unit: int = 1_000_000,
    ):
        if not slaves:
            raise ValueError("need at least one slave host")
        self.sim = sim
        self.slaves = list(slaves)
        self.app = app
        self.threshold, self.window = app.convergence(
            convergence_threshold, stability_window)
        self.max_iterations = max_iterations_per_unit
        self.result = MasterSlaveResult(completed=False, finished_at=None)
        self.queue: list[int] = list(range(app.num_tasks))
        self.rejected: NotSupportedError | None = None
        self.done = sim.event(name=f"ms:{app.app_id}:done")
        sim.process(self._master(), label=f"ms:{app.app_id}")

    def _master(self):
        running: list = []
        while (self.queue or running) and self.rejected is None:
            busy = {slave for _, slave, _ in running}
            free = [s for s in self.slaves if s.online and s not in busy]
            while self.queue and free:
                slave = free.pop(0)
                task_id = self.queue.pop(0)
                running.append(
                    (self.sim.process(
                        self._work_unit(slave, task_id),
                        label=f"ms:unit{task_id}",
                    ), slave, task_id)
                )
            if not running:
                # nothing runnable (all slaves dead): poll for recoveries
                yield self.sim.timeout(0.5)
                continue
            yield self.sim.any_of([p for p, _, _ in running])
            still = []
            for proc, slave, task_id in running:
                if proc.processed:
                    if not proc.value:  # failed unit: rerun from scratch
                        self.result.retries += 1
                        if self.rejected is None:
                            self.queue.append(task_id)
                else:
                    still.append((proc, slave, task_id))
            running = still
        if self.rejected is not None:
            return  # done already failed with NotSupportedError
        self.result.completed = True
        self.result.finished_at = self.sim.now
        self.done.succeed(self.result)

    def _work_unit(self, slave: Host, task_id: int):
        """Run one task in isolation on ``slave``; True on success."""
        task: Task = self.app.task_factory()
        task.setup(
            TaskContext(self.app.app_id, task_id, self.app.num_tasks, self.app.params)
        )
        task.load_state(task.initial_state())
        detector = LocalConvergenceDetector(self.threshold, self.window)
        iterations = 0
        while iterations < self.max_iterations:
            if not slave.online:
                return False  # slave vanished: the master re-queues the unit
            step = task.iterate({})  # no neighbours in this model
            if step.outgoing:
                exc = NotSupportedError(
                    "master-slave model cannot express inter-task communication "
                    f"(task {task_id} tried to send to {sorted(step.outgoing)})"
                )
                self.rejected = exc
                if not self.done.triggered:
                    self.done.fail(exc)
                return False
            yield self.sim.timeout(
                max(step.flops / (slave.speed * BASE_FLOPS), 1e-6)
            )
            if not slave.online:
                return False  # died mid-iteration: work lost
            iterations += 1
            detector.update(step.local_distance)
            if detector.stable:
                self.result.results[task_id] = task.solution_fragment()
                tr = self.sim.tracer
                if tr.enabled:
                    tr.emit(self.sim.now, "baselines", f"ms:{self.app.app_id}",
                            "ms_unit_done", task=task_id,
                            iterations=iterations)
                return True
        return False
