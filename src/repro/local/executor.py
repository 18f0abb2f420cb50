"""The threaded execution engine.

``mode="async"`` — one free-running thread per task, exactly the JaceP2P
iteration discipline: read whatever is fresh, iterate, publish, never wait.
``mode="sync"`` — the same threads with a :class:`threading.Barrier` per
superstep (the BSP contrast).

Global convergence mirrors §5.5: a shared stable-bit array guarded by a
lock; the thread that flips the last bit to 1 sets the stop flag that every
thread polls between iterations.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.convergence import LocalConvergenceDetector
from repro.errors import TaskError
from repro.p2p.messages import AppSpec
from repro.p2p.task import Task, TaskContext
from repro.local.channels import MailboxSet
from repro.util.timer import WallTimer

__all__ = ["ThreadedEngine", "LocalResult"]


@dataclass
class LocalResult:
    """Outcome of one threaded run."""

    converged: bool
    wall_time: float
    mode: str
    iterations: dict[int, int] = field(default_factory=dict)
    useless_iterations: dict[int, int] = field(default_factory=dict)
    fragments: dict[int, Any] = field(default_factory=dict)

    @property
    def total_iterations(self) -> int:
        return sum(self.iterations.values())


class ThreadedEngine:
    """Run an AppSpec on real threads."""

    def __init__(
        self,
        app: AppSpec,
        mode: str = "async",
        convergence_threshold: float = 1e-6,
        stability_window: int = 3,
        max_iterations: int = 100_000,
        pace_sleep: float = 1e-4,
    ):
        """``pace_sleep`` briefly yields the GIL between iterations so the
        OS scheduler interleaves the workers; without it one thread can run
        a whole burst of iterations on stale data.  In asynchronous mode
        the stability detector is additionally fed only on iterations that
        received fresh neighbour data — judging stability on actual
        exchanges, not on spinning (the naive §5.5 detector is vulnerable
        to exactly that on real thread schedulers)."""
        if mode not in ("async", "sync"):
            raise ValueError("mode must be 'async' or 'sync'")
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if pace_sleep < 0:
            raise ValueError("pace_sleep must be >= 0")
        self.app = app
        self.mode = mode
        self.pace_sleep = pace_sleep
        self.threshold, self.window = app.convergence(
            convergence_threshold, stability_window)
        self.max_iterations = max_iterations

    def run(self) -> LocalResult:
        app = self.app
        n = app.num_tasks
        mailboxes = MailboxSet(n)
        stop = threading.Event()
        state_lock = threading.Lock()
        stable = [False] * n
        errors: list[BaseException] = []
        result = LocalResult(converged=False, wall_time=0.0, mode=self.mode)
        iterations = [0] * n
        useless = [0] * n
        fragments: list[Any] = [None] * n
        barrier = threading.Barrier(n) if self.mode == "sync" else None

        def mark_state(task_id: int, is_stable: bool) -> None:
            with state_lock:
                stable[task_id] = is_stable
                if all(stable):
                    stop.set()

        def worker(task_id: int) -> None:
            try:
                task: Task = app.task_factory()
                task.setup(TaskContext(app.app_id, task_id, n, app.params))
                task.load_state(task.initial_state())
                detector = LocalConvergenceDetector(self.threshold, self.window)
                while not stop.is_set() and iterations[task_id] < self.max_iterations:
                    inbox = mailboxes.collect(task_id)
                    step = task.iterate(inbox)
                    iterations[task_id] += 1
                    fresh = bool(inbox) or n == 1
                    if not fresh:
                        useless[task_id] += 1
                    for dst, payload in step.outgoing.items():
                        if 0 <= dst < n and dst != task_id:
                            mailboxes.send(task_id, dst, payload)
                    judge = fresh or self.mode == "sync"
                    if judge and detector.update(step.local_distance):
                        mark_state(task_id, detector.stable)
                    if barrier is not None:
                        try:
                            barrier.wait(timeout=60.0)
                        except threading.BrokenBarrierError:
                            break
                    elif self.pace_sleep:
                        time.sleep(self.pace_sleep)
                if barrier is not None:
                    # release any peer already parked at the barrier: we are
                    # leaving, so the superstep can never complete
                    barrier.abort()
                fragments[task_id] = task.solution_fragment()
            except BaseException as exc:  # noqa: BLE001 - surfaced in run()
                errors.append(exc)
                stop.set()
                if barrier is not None:
                    barrier.abort()

        threads = [
            threading.Thread(target=worker, args=(k,), name=f"{app.app_id}-task{k}")
            for k in range(n)
        ]
        with WallTimer() as timer:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=600.0)
        if errors:
            raise TaskError(f"worker thread failed: {errors[0]!r}") from errors[0]

        result.converged = all(stable)
        result.wall_time = timer.elapsed
        result.iterations = {k: iterations[k] for k in range(n)}
        result.useless_iterations = {k: useless[k] for k in range(n)}
        result.fragments = {k: fragments[k] for k in range(n)}
        return result
