"""The user-facing Task abstraction.

A JaceP2P application is "a SPMD Java program which uses JaceP2P methods by
extending the Task class" (§4.2).  The Python contract:

* :meth:`Task.setup` builds the local sub-problem deterministically from the
  application parameters and the task's index — every Daemon (including a
  replacement after a failure) can reconstruct it;
* :meth:`Task.iterate` performs **one asynchronous iteration** given the
  freshest data received from each neighbour since the previous call, and
  returns an :class:`IterationStep`: the estimated flop cost (charged as
  simulated compute time), the outgoing messages, and the local update
  distance (fed to the convergence detector) — it is the only iteration
  hook;
* :meth:`Task.dump_state` / :meth:`Task.load_state` give the runtime the
  checkpointable state (the Backup payload, §5.4).

The runtime — not the task — owns iteration counting, checkpoint scheduling,
convergence messaging and data transport.  Where a task's inner solve runs
is the task's own decision: :attr:`TaskContext.compute` offers the
cluster's compute plane when there is one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["TaskContext", "IterationStep", "ComponentFilter", "Task"]


@dataclass(frozen=True)
class TaskContext:
    """Identity and parameters handed to a Task at setup time."""

    app_id: str
    task_id: int
    num_tasks: int
    params: dict = field(default_factory=dict)
    #: the cluster's :class:`repro.compute.ComputePlane`, filled in by the
    #: Daemon; ``None`` wherever tasks run without one (``repro.local``,
    #: the baselines, unit tests) — a task then solves on its own operator
    compute: Any = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.task_id < self.num_tasks:
            raise ConfigurationError("task_id out of range")


@dataclass
class IterationStep:
    """What one local iteration produced."""

    #: estimated floating-point operations of this iteration (charged to the
    #: host's simulated CPU)
    flops: float
    #: messages to neighbours: destination task id -> payload
    outgoing: dict[int, Any] = field(default_factory=dict)
    #: max-norm relative distance between successive local iterates
    local_distance: float = float("inf")
    #: free-form diagnostics (e.g. inner CG iterations)
    info: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.flops < 0:
            raise ConfigurationError("flops must be >= 0")
        if self.local_distance < 0:
            raise ConfigurationError("local_distance must be >= 0")


#: :class:`ComponentFilter` tuning: a component is implausible when its jump
#: exceeds ``FLOOR + SAFETY`` times the source's reference jump scale, which
#: decays by ``DECAY`` per message; ``PATIENCE`` partially rejected messages
#: in a row force wholesale acceptance
SAFETY = 25.0
FLOOR = 1e-9
DECAY = 0.95
PATIENCE = 16
#: :meth:`Task.state_plausible` refuses a state with a component beyond this
PLAUSIBLE_CEILING = 1e8


class ComponentFilter:
    """Contraction-bound plausibility filter for incoming boundary data
    (arXiv:2206.08479, "Modifying the Asynchronous Jacobi Method for Data
    Corruption Resilience").

    Asynchronous block-Jacobi contracts: between two successive messages
    from the same neighbour, each boundary component moves by an amount on
    the order of the per-iteration update — never by orders of magnitude.
    The filter keeps, per source task, the last *accepted* payload and a
    decayed reference jump scale (the median of accepted component jumps —
    the corruption adversary perturbs individual components, and a median
    shrugs off the outlier it is trying to measure).  A component whose
    jump exceeds ``FLOOR + SAFETY·reference`` is rejected and the last
    accepted value reused in its place.

    Two escape hatches keep the filter live rather than paranoid: a
    message whose components are *all* implausible is indistinguishable
    from a legitimate regime change (recovery rollback, new sub-problem)
    and is accepted wholesale, and ``PATIENCE`` consecutive partially
    rejected messages from one source force wholesale acceptance so a
    drifting-but-honest neighbour can never be frozen out forever.
    """

    __slots__ = ("rejected", "_last", "_ref", "_streak")

    def __init__(self):
        #: total components rejected so far (read by the task runner)
        self.rejected = 0
        self._last: dict[int, np.ndarray] = {}
        self._ref: dict[int, float] = {}
        self._streak: dict[int, int] = {}

    def filter(self, src_task: int, values: np.ndarray) -> np.ndarray:
        """Return ``values`` with implausible components replaced by the
        last accepted ones; updates the per-source reference scale."""
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return arr
        last = self._last.get(src_task)
        if last is None or last.shape != arr.shape:
            # tasks iterate from x = 0, so the implicit previous boundary
            # is the zero vector
            last = np.zeros_like(arr)
        jump = np.abs(arr - last)
        med = float(np.median(jump))
        ref = self._ref.get(src_task)
        out = arr
        if ref is not None:
            threshold = FLOOR + SAFETY * ref
            bad = jump > threshold
            nbad = int(bad.sum())
            streak = self._streak.get(src_task, 0)
            if 0 < nbad < arr.size and streak < PATIENCE:
                out = arr.copy()
                out[bad] = last[bad]
                self.rejected += nbad
                self._streak[src_task] = streak + 1
                good = jump[~bad]
                med = float(np.median(good)) if good.size else 0.0
            else:
                # clean, wholesale-implausible, or patience exhausted:
                # accept as-is and re-anchor the reference below
                self._streak[src_task] = 0
            ref = max(med, DECAY * ref)
        else:
            ref = med
        self._ref[src_task] = ref
        self._last[src_task] = out
        return out


class Task:
    """Base class for SPMD applications.  Subclass and override the hooks."""

    ctx: TaskContext

    # -- lifecycle ---------------------------------------------------------

    def setup(self, ctx: TaskContext) -> None:
        """Build the local sub-problem.  Must be deterministic in ``ctx``."""
        self.ctx = ctx
        self._reject_filter: ComponentFilter | None = None
        if ctx.params.get("reject_corruption"):
            self._reject_filter = ComponentFilter()

    def initial_state(self) -> dict:
        """The state a brand-new task starts from (iteration 0)."""
        raise NotImplementedError

    def load_state(self, state: dict) -> None:
        """Adopt a (checkpointed or initial) state dict."""
        raise NotImplementedError

    def dump_state(self) -> dict:
        """Snapshot the current state (becomes the Backup payload)."""
        raise NotImplementedError

    # -- iteration -----------------------------------------------------------

    def iterate(self, inbox: dict[int, Any]) -> IterationStep:
        """One asynchronous iteration.

        ``inbox`` holds the freshest payload per source task received since
        the last call (empty when nothing arrived — the task must still
        iterate; whether that progresses is the paper's "useless
        iteration" phenomenon).
        """
        raise NotImplementedError

    # -- corruption resilience (arXiv:2206.08479) ------------------------------

    @property
    def components_rejected(self) -> int:
        """Total boundary components the rejection filter discarded."""
        flt = getattr(self, "_reject_filter", None)
        return 0 if flt is None else flt.rejected

    def guard_payload(self, src_task: int, values: np.ndarray) -> np.ndarray:
        """Apps route every incoming boundary payload through this in their
        inbox fold; a no-op unless the run enables corruption rejection."""
        flt = getattr(self, "_reject_filter", None)
        return values if flt is None else flt.filter(src_task, values)

    def state_plausible(self, state: dict) -> bool:
        """Whether a checkpointed state passes the plausibility screen
        (finite, bounded) — used to refuse restoring corrupted Backups."""
        for value in state.values():
            arr = np.asarray(value)
            if arr.dtype.kind != "f" or arr.size == 0:
                continue
            if not np.isfinite(arr).all():
                return False
            if float(np.abs(arr).max()) > PLAUSIBLE_CEILING:
                return False
        return True

    # -- results ---------------------------------------------------------------

    def solution_fragment(self) -> Any:
        """The owned part of the global solution (collected at the end)."""
        return None
