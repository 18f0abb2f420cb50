"""In-process measurement of a running application.

:class:`RunTelemetry` is an *instrument*, not a protocol participant:
entities write counters into it directly (outside the simulated network),
the experiment harness reads them afterwards.  Nothing in the runtime's
behaviour depends on it.

It is a plain record: one int (or one per-task ``Counter``) per fact,
written with ``+=`` by the one entity that observes the fact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

__all__ = ["RunTelemetry", "RecoveryRecord"]


@dataclass(frozen=True)
class RecoveryRecord:
    """One task restart after a failure."""

    time: float
    task_id: int
    resumed_iteration: int
    from_scratch: bool


class RunTelemetry:
    """Aggregated counters for one application run."""

    def __init__(self):
        #: asynchronous dependency messages sent
        self.data_messages_sent = 0
        #: Backup objects shipped to guardian peers, and their payload bytes
        self.checkpoints_sent = 0
        self.checkpoint_bytes = 0
        #: Backups refused at recovery by the plausibility screen
        self.checkpoints_rejected = 0
        #: boundary components discarded by the corruption filter
        self.components_rejected = 0
        #: dependency messages refused from a superseded task epoch
        self.zombie_data_dropped = 0
        #: local-stability flip messages sent
        self.convergence_messages = 0
        #: completed iterations per task, and those without fresh
        #: neighbour data (paper §7); a task that never iterated reads 0
        self.iterations: Counter[int] = Counter()
        self.useless_iterations: Counter[int] = Counter()
        #: iteration each task had reached when the app halted
        self.frontier: dict[int, int] = {}
        #: simulated times of the launch and of global convergence
        self.launched_at = 0.0
        self.converged_at: float | None = None
        #: task restarts after a detected failure, in order
        self.recoveries: list[RecoveryRecord] = []

    def record_recovery(
        self, time: float, task_id: int, resumed_iteration: int, from_scratch: bool
    ) -> None:
        self.recoveries.append(
            RecoveryRecord(time, task_id, resumed_iteration, from_scratch)
        )

    # -- readers ----------------------------------------------------------------

    @property
    def total_iterations(self) -> int:
        return sum(self.iterations.values())

    @property
    def total_useless(self) -> int:
        return sum(self.useless_iterations.values())

    @property
    def useless_fraction(self) -> float:
        total = self.total_iterations
        return self.total_useless / total if total else 0.0

    @property
    def mean_task_iterations(self) -> float:
        per_task = self.iterations
        return self.total_iterations / len(per_task) if per_task else 0.0

    @property
    def restarts_from_zero(self) -> int:
        return sum(rec.from_scratch for rec in self.recoveries)

    @property
    def wasted_iterations(self) -> int:
        """Iterations executed beyond the converged per-task frontier —
        i.e. work redone after recoveries rolled tasks back.  Zero until
        the app halts (the frontier is recorded at halt time)."""
        if not self.frontier:
            return 0
        return max(0, self.total_iterations - sum(self.frontier.values()))

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
