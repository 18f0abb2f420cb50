"""In-process measurement of a running application.

:class:`RunTelemetry` is an *instrument*, not a protocol participant:
entities write counters into it directly (outside the simulated network),
the experiment harness reads them afterwards.  Nothing in the runtime's
behaviour depends on it.

It is a thin attribute surface over a
:class:`~repro.obs.metrics.MetricsRegistry`: every field
(``data_messages_sent``, ``iterations`` …) reads and writes registry
metrics, so the same numbers are available both through the attribute API
and through ``telemetry.registry.snapshot()`` /
:func:`repro.obs.report.build_run_report`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry

__all__ = ["RunTelemetry", "RecoveryRecord"]


@dataclass(frozen=True)
class RecoveryRecord:
    """One task restart after a failure."""

    time: float
    task_id: int
    resumed_iteration: int
    from_scratch: bool


class RunTelemetry:
    """Aggregated counters for one application run (registry façade).

    ``registry`` defaults to a private :class:`MetricsRegistry`; pass one in
    to aggregate several instruments into a shared registry (each instrument
    then shares metric families, so only do this for one application).
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self._iterations = r.counter(
            "task_iterations", "completed iterations, labelled by task")
        self._useless = r.counter(
            "task_useless_iterations",
            "iterations without fresh neighbour data (paper §7), by task")
        self._data_messages = r.counter(
            "data_messages_sent", "asynchronous dependency messages sent")
        self._checkpoints = r.counter(
            "checkpoints_sent", "Backup objects shipped to guardian peers")
        self._checkpoint_bytes = r.counter(
            "checkpoint_bytes", "Backup payload bytes shipped to guardians")
        self._checkpoints_rejected = r.counter(
            "checkpoints_rejected",
            "Backups refused at recovery by the plausibility screen")
        self._components_rejected = r.counter(
            "components_rejected",
            "boundary components discarded by the corruption filter")
        self._zombie_data_dropped = r.counter(
            "zombie_data_dropped",
            "dependency messages refused from a superseded task epoch")
        self._convergence_messages = r.counter(
            "convergence_messages", "local-stability flip messages sent")
        self._recoveries = r.counter(
            "recoveries", "task restarts after a detected failure")
        self._from_scratch = r.counter(
            "restarts_from_scratch", "recoveries with every Backup lost")
        self._launched = r.gauge(
            "launched_at", "simulated time the application was launched")
        self._converged = r.gauge(
            "converged_at", "simulated time global convergence was declared")
        self._frontier = r.gauge(
            "task_frontier",
            "iteration each task had reached when the app halted, by task")
        self._launched.set(0.0)
        #: full recovery history (order preserved, richer than the counter)
        self.recoveries: list[RecoveryRecord] = []

    def record_frontier(self, task_id: int, iteration: int) -> None:
        """The iteration a task stood at when global convergence halted it."""
        self._frontier.set(float(iteration), task=task_id)

    # -- writers -------------------------------------------------------------

    def record_iteration(self, task_id: int, fresh: bool) -> None:
        self._iterations.inc(task=task_id)
        if not fresh:
            self._useless.inc(task=task_id)

    def record_recovery(
        self, time: float, task_id: int, resumed_iteration: int, from_scratch: bool
    ) -> None:
        self.recoveries.append(
            RecoveryRecord(time, task_id, resumed_iteration, from_scratch)
        )
        self._recoveries.inc(task=task_id)
        if from_scratch:
            self._from_scratch.inc(task=task_id)

    # -- scalar fields (read-modify-write works) ------------------------------

    @property
    def data_messages_sent(self) -> int:
        return int(self._data_messages.total)

    @data_messages_sent.setter
    def data_messages_sent(self, value: int) -> None:
        self._data_messages.set(value)

    @property
    def checkpoints_sent(self) -> int:
        return int(self._checkpoints.total)

    @checkpoints_sent.setter
    def checkpoints_sent(self, value: int) -> None:
        self._checkpoints.set(value)

    @property
    def checkpoint_bytes(self) -> int:
        return int(self._checkpoint_bytes.total)

    @checkpoint_bytes.setter
    def checkpoint_bytes(self, value: int) -> None:
        self._checkpoint_bytes.set(value)

    @property
    def checkpoints_rejected(self) -> int:
        return int(self._checkpoints_rejected.total)

    @checkpoints_rejected.setter
    def checkpoints_rejected(self, value: int) -> None:
        self._checkpoints_rejected.set(value)

    @property
    def components_rejected(self) -> int:
        return int(self._components_rejected.total)

    @components_rejected.setter
    def components_rejected(self, value: int) -> None:
        self._components_rejected.set(value)

    @property
    def zombie_data_dropped(self) -> int:
        return int(self._zombie_data_dropped.total)

    @zombie_data_dropped.setter
    def zombie_data_dropped(self, value: int) -> None:
        self._zombie_data_dropped.set(value)

    @property
    def convergence_messages(self) -> int:
        return int(self._convergence_messages.total)

    @convergence_messages.setter
    def convergence_messages(self, value: int) -> None:
        self._convergence_messages.set(value)

    @property
    def launched_at(self) -> float:
        return self._launched.value(default=0.0)

    @launched_at.setter
    def launched_at(self, value: float) -> None:
        self._launched.set(value)

    @property
    def converged_at(self) -> float | None:
        return self._converged.value(default=None)

    @converged_at.setter
    def converged_at(self, value: float | None) -> None:
        if value is None:
            self._converged.clear()
        else:
            self._converged.set(value)

    # -- dict views -------------------------------------------------------------

    @property
    def iterations(self) -> dict[int, int]:
        """Completed iterations per task (defaultdict view of the counter)."""
        return defaultdict(
            int, {t: int(v) for t, v in self._iterations.by_label("task").items()}
        )

    @property
    def useless_iterations(self) -> dict[int, int]:
        return defaultdict(
            int, {t: int(v) for t, v in self._useless.by_label("task").items()}
        )

    # -- readers ----------------------------------------------------------------

    @property
    def total_iterations(self) -> int:
        return int(self._iterations.total)

    @property
    def total_useless(self) -> int:
        return int(self._useless.total)

    @property
    def useless_fraction(self) -> float:
        total = self.total_iterations
        return self.total_useless / total if total else 0.0

    @property
    def max_task_iterations(self) -> int:
        values = self._iterations.by_label("task").values()
        return int(max(values, default=0))

    @property
    def mean_task_iterations(self) -> float:
        per_task = self._iterations.by_label("task")
        return self.total_iterations / len(per_task) if per_task else 0.0

    @property
    def restarts_from_zero(self) -> int:
        return int(self._from_scratch.total)

    @property
    def wasted_iterations(self) -> int:
        """Iterations executed beyond the converged per-task frontier —
        i.e. work redone after recoveries rolled tasks back.  Zero until
        the app halts (the frontier is recorded at halt time)."""
        frontier = self._frontier._values
        if not frontier:
            return 0
        kept = int(sum(frontier.values()))
        return max(0, self.total_iterations - kept)

    @property
    def execution_time(self) -> float | None:
        converged = self.converged_at
        if converged is None:
            return None
        return converged - self.launched_at

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} iterations={self.total_iterations} "
            f"recoveries={len(self.recoveries)}>"
        )
