"""Checkpoint strategy layer: the guardian ring, the policies and the one
schedule they bind to.

Paper §5.4: "During the whole execution of an application, a peer always
saves its current Task object on the same set of neighbors (in a round-robin
fashion)" and the experiments use "20 backup-peers ... for each task".

* :func:`guardians` — the placement *ring*: which task indices guard a
  task, nearest first.  Identifying backup-peers by **task index** (not
  daemon identity) is what makes the set stable across replacements: the
  checkpoint goes to whichever Daemon currently runs the guarding task.
* :class:`CheckpointPolicy` and its implementations — the *strategy*, a
  frozen value object: ``count`` guardians, a save every ``frequency``
  iterations.  :class:`FixedPolicy` is the paper's scheme;
  :class:`AdaptivePolicy` re-tunes interval and replica count online from
  observed failure inter-arrival times and measured checkpoint cost
  (arXiv:0711.3949's first-order model, ``T_opt = sqrt(2·C·M)``).
* :class:`CheckpointSchedule` — what :meth:`CheckpointPolicy.bind` returns
  per task runner, for both policies.  Bound without failure evidence (no
  :class:`~repro.checkpoint.feed.FailureFeed`, as :class:`FixedPolicy`
  always is) it never re-tunes, and is the paper's fixed schedule.

Policies ride inside :class:`~repro.exec.spec.RunSpec` — they serialize
through :meth:`CheckpointPolicy.to_dict` / :func:`policy_from_dict`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Any, ClassVar

from repro.checkpoint.feed import ALPHA

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.checkpoint.feed import FailureFeed

__all__ = [
    "guardians",
    "CheckpointPolicy",
    "CheckpointSchedule",
    "FixedPolicy",
    "AdaptivePolicy",
    "policy_from_dict",
]

#: :class:`AdaptivePolicy`'s cost model: the shortest checkpoint interval
#: (iterations), the bandwidth a checkpoint ships over (bytes/s) and its
#: fixed cost (s), and the rollback risk each extra replica covers
MIN_FREQUENCY = 1
LINK_BANDWIDTH = 12.5e6
SAVE_OVERHEAD = 5e-4
REPLICA_RISK = 0.5


@lru_cache(maxsize=None)
def guardians(task_id: int, num_tasks: int, count: int) -> tuple[int, ...]:
    """The fixed set of task indices guarding ``task_id``.

    ``min(count, num_tasks - 1)`` of them, ordered by proximity,
    alternating successor/predecessor: ``(k+1, k-1, k+2, k-2, ...)`` (mod
    ``num_tasks``), self excluded.  A pure function of its arguments, asked
    on every save, so cached.
    """
    if num_tasks < 1:
        raise ValueError("num_tasks must be >= 1")
    if count < 0:
        raise ValueError("count must be >= 0")
    if not 0 <= task_id < num_tasks:
        raise ValueError(f"task_id {task_id} out of range")
    want = min(count, num_tasks - 1)
    peers: list[int] = []
    offset = 1
    while len(peers) < want:
        for c in ((task_id + offset) % num_tasks,
                  (task_id - offset) % num_tasks):
            if len(peers) < want and c not in peers:
                peers.append(c)
        offset += 1
    return tuple(peers)


_POLICY_KINDS: dict[str, type["CheckpointPolicy"]] = {}


def _register(cls: type["CheckpointPolicy"]) -> type["CheckpointPolicy"]:
    _POLICY_KINDS[cls.kind] = cls
    return cls


def policy_from_dict(data: dict[str, Any]) -> "CheckpointPolicy":
    """Reconstruct a policy from its kind-tagged :meth:`to_dict` form."""
    payload = dict(data)
    kind = payload.pop("kind", None)
    cls = _POLICY_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown checkpoint policy kind {kind!r}")
    return cls(**payload)


@dataclass(frozen=True)
class CheckpointPolicy:
    """Strategy deciding, per task and per iteration, whether to checkpoint
    now and to how many backup peers.

    Parameters
    ----------
    count:
        Number of backup-peers guarding each task (clamped to
        ``num_tasks - 1``; paper default 20).
    frequency:
        Checkpoint every ``frequency`` iterations — the ``JaceSave``
        setting (paper experiments: 5); :class:`AdaptivePolicy`'s prior.

    Subclasses are frozen dataclasses carrying only tuning constants; the
    mutable per-run machinery is the :class:`CheckpointSchedule` returned
    by :meth:`bind`.
    """

    count: int = 20
    frequency: int = 5

    kind: ClassVar[str] = ""

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be >= 0")
        if self.frequency < 1:
            raise ValueError("frequency must be >= 1")

    def to_dict(self) -> dict[str, Any]:
        return {"kind": type(self).kind, **asdict(self)}

    def bind(self, num_tasks: int,
             feed: "FailureFeed | None" = None) -> "CheckpointSchedule":
        """Create the mutable per-runner schedule driving one task's saves,
        re-tuned from ``feed`` when there is one."""
        return CheckpointSchedule(self, num_tasks, feed)


@_register
@dataclass(frozen=True)
class FixedPolicy(CheckpointPolicy):
    """The paper's scheme: every ``frequency`` iterations, round-robin one
    checkpoint across ``count`` guardians.

    Bound with no failure evidence, so its schedule never re-tunes;
    ``tests/test_checkpoint_policy.py`` holds it, step for step, to the
    paper's modulo-``frequency`` path in
    ``tests/oracles/fixed_checkpoint_reference.py``."""

    kind: ClassVar[str] = "fixed"

    def bind(self, num_tasks: int,
             feed: "FailureFeed | None" = None) -> "CheckpointSchedule":
        return CheckpointSchedule(self, num_tasks, None)


@_register
@dataclass(frozen=True)
class AdaptivePolicy(CheckpointPolicy):
    """Online-tuned interval and replica count (arXiv:0711.3949).

    Let ``M`` be the EWMA failure inter-arrival time (stretched by the
    silence since the last failure), ``C`` the estimated per-checkpoint
    cost, and ``tau`` the EWMA iteration duration.  The first-order optimal
    checkpoint period is ``T_opt = sqrt(2·C·M)``; the interval (in
    iterations) is ``clamp(round(T_opt / tau), MIN_FREQUENCY,
    max_frequency)``.  The replica count scales with the risk of losing an
    interval's work, ``risk = interval·tau / M``: one extra replica per
    ``REPLICA_RISK`` units, capped at ``max_replicas``.  ``C`` prices the
    EWMA checkpoint size over ``LINK_BANDWIDTH`` plus ``SAVE_OVERHEAD``;
    ``tau`` is smoothed like the failure feed's estimates
    (:data:`repro.checkpoint.feed.ALPHA`).

    Until the first observed failure there is no evidence to deviate from
    the configured ``frequency`` prior (one replica).  After a failure the
    estimate keeps stretching with the silence since the last one, so a
    burst of churn tightens the schedule and a long quiet tail relaxes it
    again.  All inputs are sim-time-driven EWMAs, so the adaptation
    trajectory replays deterministically.
    """

    kind: ClassVar[str] = "adaptive"

    max_frequency: int = 40
    max_replicas: int = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_frequency < MIN_FREQUENCY:
            raise ValueError("max_frequency must be >= 1")
        if self.max_replicas < 1:
            raise ValueError("max_replicas must be >= 1")


class CheckpointSchedule:
    """One task runner's checkpoint schedule, bound from a policy.

    A save is due once ``interval`` iterations have passed since the last
    one, and goes to ``replicas`` consecutive round-robin slots of the
    task's :func:`guardians` ring.  With a ``feed``, every finished
    iteration re-tunes ``interval`` and ``replicas`` by
    :class:`AdaptivePolicy`'s law.  Without one they stay ``frequency`` and
    1, and this is the paper's fixed schedule: due on every multiple of
    ``frequency``, the ``s``-th save to ring slot ``s mod len(ring)``.
    That holds because a rollback only ever resumes at 0 or at an
    iteration a schedule saved at (a restored Backup's), so every save and
    every resume point is a multiple of ``frequency``, and
    :meth:`on_rollback`'s ``iteration // interval`` puts the cursor where
    the lost incarnation's was.
    """

    __slots__ = ("spec", "num_tasks", "feed", "interval", "replicas",
                 "save_count", "last_save_iteration", "iter_ewma", "retunes")

    def __init__(self, spec: CheckpointPolicy, num_tasks: int,
                 feed: "FailureFeed | None"):
        self.spec = spec
        self.num_tasks = num_tasks
        self.feed = feed
        self.interval = spec.frequency
        self.replicas = 1
        self.save_count = 0
        self.last_save_iteration = 0
        self.iter_ewma = 0.0
        #: interval re-tunes that changed the schedule (for tests/traces)
        self.retunes = 0

    def checkpoint_due(self, iteration: int) -> bool:
        """Checkpoint after this iteration?"""
        return iteration - self.last_save_iteration >= self.interval

    def begin_save(self, task_id: int, iteration: int) -> tuple[int, ...]:
        """The guardian task indices for this save; advances the cursor."""
        self.last_save_iteration = iteration
        peers = self.backup_peers(task_id)
        n = min(self.replicas, len(peers))
        base = self.save_count
        self.save_count = base + n
        # n consecutive round-robin slots are distinct whenever n <= len
        return tuple(peers[(base + j) % len(peers)] for j in range(n))

    def on_iteration(self, now: float, duration: float) -> None:
        """One finished iteration: feeds the iteration-time EWMA and
        re-tunes, when there is failure evidence to tune from."""
        if self.feed is None:
            return
        a = ALPHA
        if self.iter_ewma <= 0.0:
            self.iter_ewma = duration
        else:
            self.iter_ewma = (1.0 - a) * self.iter_ewma + a * duration
        self._retune(now)

    def on_checkpoint(self, nbytes: int) -> None:
        """One shipped checkpoint payload."""
        if self.feed is not None:
            self.feed.record_checkpoint(nbytes)

    def on_rollback(self, iteration: int) -> None:
        """Resume after a recovery restored ``iteration``."""
        self.last_save_iteration = iteration
        self.save_count = iteration // self.interval

    def backup_peers(self, task_id: int) -> tuple[int, ...]:
        return guardians(task_id, self.num_tasks, self.spec.count)

    # -- the adaptation law --------------------------------------------------

    def _retune(self, now: float) -> None:
        spec = self.spec
        tau = self.iter_ewma
        if tau <= 0.0:
            return
        mtbf = self.feed.mtbf(now)
        if mtbf is None:
            # no failure observed yet: no evidence to deviate from the
            # configured prior (jumping to max_frequency here would make
            # the *first* failure roll back a max-length interval)
            interval, replicas = spec.frequency, 1
        else:
            cost = self.feed.checkpoint_cost(LINK_BANDWIDTH, SAVE_OVERHEAD)
            t_opt = math.sqrt(2.0 * cost * mtbf)
            k = int(round(t_opt / tau)) or 1
            interval = max(MIN_FREQUENCY, min(spec.max_frequency, k))
            risk = (interval * tau) / mtbf
            replicas = max(1, min(spec.max_replicas,
                                  1 + int(risk / REPLICA_RISK)))
        if interval != self.interval or replicas != self.replicas:
            self.retunes += 1
        self.interval = interval
        self.replicas = replicas
