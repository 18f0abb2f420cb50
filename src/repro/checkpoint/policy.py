"""Checkpoint strategy layer: placement rings and scheduling policies.

Paper §5.4: "During the whole execution of an application, a peer always
saves its current Task object on the same set of neighbors (in a round-robin
fashion)" and the experiments use "20 backup-peers ... for each task".

Two layers live here:

* :class:`BackupPolicy` — the placement *ring*: which task indices guard a
  task, and where the ``save_index``-th checkpoint lands (round-robin).
  Identifying backup-peers by **task index** (not daemon identity) is what
  makes the set stable across replacements: the checkpoint goes to whichever
  Daemon currently runs the guarding task.
* :class:`CheckpointPolicy` and its implementations — the *strategy*:
  per-iteration decisions of whether to checkpoint now and to how many
  peers.  :class:`FixedPolicy` reproduces the paper's fixed
  "every ``frequency`` iterations, one guardian per save" scheme bit-for-bit;
  :class:`AdaptivePolicy` re-tunes interval and replica count online from
  observed failure inter-arrival times and measured checkpoint cost
  (arXiv:0711.3949's first-order model, ``T_opt = sqrt(2·C·M)``).

Policies are frozen dataclasses that ride inside
:class:`~repro.exec.spec.RunSpec` — they serialize through
:meth:`CheckpointPolicy.to_dict` / :func:`policy_from_dict` and are *bound*
per task runner via :meth:`CheckpointPolicy.bind`, which returns the mutable
per-run state object the Daemon drives.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, ClassVar

from repro.checkpoint.feed import ALPHA

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.checkpoint.feed import FailureFeed

__all__ = [
    "BackupPolicy",
    "CheckpointPolicy",
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


@dataclass(frozen=True)
class BackupPolicy:
    """Placement and frequency rules for one application.

    Parameters
    ----------
    num_tasks:
        Total tasks in the application.
    count:
        Number of backup-peers guarding each task (clamped to
        ``num_tasks - 1``; paper default 20).
    frequency:
        Checkpoint every ``frequency`` iterations — the ``JaceSave``
        setting (paper experiments: 5).
    """

    num_tasks: int
    count: int = 20
    frequency: int = 5

    def __post_init__(self) -> None:
        if self.num_tasks < 1:
            raise ValueError("num_tasks must be >= 1")
        if self.count < 0:
            raise ValueError("count must be >= 0")
        if self.frequency < 1:
            raise ValueError("frequency must be >= 1")
        # The guarding set is a pure function of (task_id, num_tasks,
        # count), and target_for_save re-derives it on every checkpoint:
        # cache per task (frozen dataclass, so plant via object.__setattr__)
        object.__setattr__(self, "_peers_cache", {})

    @property
    def effective_count(self) -> int:
        return min(self.count, self.num_tasks - 1)

    def backup_peers(self, task_id: int) -> list[int]:
        """The fixed set of task indices guarding ``task_id``.

        Ordered by proximity, alternating successor/predecessor:
        ``[k+1, k-1, k+2, k-2, ...]`` (mod num_tasks), self excluded.
        """
        return list(self._cached_peers(task_id))

    def _cached_peers(self, task_id: int) -> tuple[int, ...]:
        cached = self._peers_cache.get(task_id)
        if cached is not None:
            return cached
        if not 0 <= task_id < self.num_tasks:
            raise ValueError(f"task_id {task_id} out of range")
        peers: list[int] = []
        offset = 1
        while len(peers) < self.effective_count:
            for candidate in (task_id + offset, task_id - offset):
                c = candidate % self.num_tasks
                if c != task_id and c not in peers:
                    peers.append(c)
                if len(peers) >= self.effective_count:
                    break
            offset += 1
        self._peers_cache[task_id] = cached = tuple(peers)
        return cached

    def target_for_save(self, task_id: int, save_index: int) -> int | None:
        """Which backup-peer receives the ``save_index``-th checkpoint
        (round-robin over the fixed set); None when nobody guards us."""
        peers = self._cached_peers(task_id)
        if not peers:
            return None
        return peers[save_index % len(peers)]

    def checkpoint_due(self, iteration: int) -> bool:
        """True on iterations 1·f, 2·f, ... (never at iteration 0)."""
        return iteration > 0 and iteration % self.frequency == 0


# --------------------------------------------------------------------------
# strategy layer


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

    Subclasses are frozen dataclasses carrying only tuning constants; the
    mutable per-run machinery lives in the *bound state* returned by
    :meth:`bind`.  The bound-state protocol the Daemon drives:

    * ``checkpoint_due(iteration, now) -> bool``
    * ``begin_save(task_id, iteration) -> tuple[int, ...]`` — the guardian
      task indices for this save (advances the round-robin cursor)
    * ``on_iteration(now, duration)`` — one finished iteration
    * ``on_checkpoint(nbytes)`` — one shipped checkpoint payload
    * ``on_rollback(iteration)`` — resume point after a recovery
    * ``backup_peers(task_id) -> list[int]`` and the ``ring`` attribute —
      the underlying placement :class:`BackupPolicy`
    """

    kind: ClassVar[str] = ""

    def to_dict(self) -> dict[str, Any]:
        return {"kind": type(self).kind, **asdict(self)}

    def bind(self, num_tasks: int, feed: "FailureFeed | None" = None):
        """Create the mutable per-runner state driving one task's saves."""
        raise NotImplementedError


@_register
@dataclass(frozen=True)
class FixedPolicy(CheckpointPolicy):
    """The paper's scheme: every ``frequency`` iterations, round-robin one
    checkpoint across ``count`` guardians.  Bit-for-bit identical to the
    pre-strategy ``BackupPolicy`` path."""

    kind: ClassVar[str] = "fixed"

    count: int = 20
    frequency: int = 5

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be >= 0")
        if self.frequency < 1:
            raise ValueError("frequency must be >= 1")

    def bind(self, num_tasks: int, feed: "FailureFeed | None" = None):
        ring = BackupPolicy(
            num_tasks=num_tasks, count=self.count, frequency=self.frequency
        )
        return _FixedState(ring)


class _FixedState:
    """Bound :class:`FixedPolicy`: a thin shim over the placement ring."""

    __slots__ = ("ring", "save_count")

    def __init__(self, ring: BackupPolicy):
        self.ring = ring
        self.save_count = 0

    def checkpoint_due(self, iteration: int, now: float) -> bool:
        return self.ring.checkpoint_due(iteration)

    def begin_save(self, task_id: int, iteration: int) -> tuple[int, ...]:
        target = self.ring.target_for_save(task_id, self.save_count)
        self.save_count += 1
        return () if target is None else (target,)

    def on_iteration(self, now: float, duration: float) -> None:
        pass

    def on_checkpoint(self, nbytes: int) -> None:
        pass

    def on_rollback(self, iteration: int) -> None:
        # replay the fixed schedule up to the resume point, so the
        # round-robin cursor lands exactly where the lost incarnation's was
        self.save_count = iteration // self.ring.frequency

    def backup_peers(self, task_id: int) -> list[int]:
        return self.ring.backup_peers(task_id)


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

    count: int = 20
    frequency: int = 5
    max_frequency: int = 40
    max_replicas: int = 3

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be >= 0")
        if self.frequency < 1:
            raise ValueError("frequency must be >= 1")
        if self.max_frequency < MIN_FREQUENCY:
            raise ValueError("max_frequency must be >= 1")
        if self.max_replicas < 1:
            raise ValueError("max_replicas must be >= 1")

    def bind(self, num_tasks: int, feed: "FailureFeed | None" = None):
        ring = BackupPolicy(
            num_tasks=num_tasks, count=self.count, frequency=self.frequency
        )
        return _AdaptiveState(self, ring, feed)


class _AdaptiveState:
    """Bound :class:`AdaptivePolicy`: per-runner tuner state."""

    __slots__ = ("spec", "ring", "feed", "interval", "replicas",
                 "save_count", "last_save_iteration", "iter_ewma", "retunes")

    def __init__(self, spec: AdaptivePolicy, ring: BackupPolicy,
                 feed: "FailureFeed | None"):
        self.spec = spec
        self.ring = ring
        self.feed = feed
        self.interval = spec.frequency
        self.replicas = 1
        self.save_count = 0
        self.last_save_iteration = 0
        self.iter_ewma = 0.0
        #: interval re-tunes that changed the schedule (for tests/traces)
        self.retunes = 0

    def checkpoint_due(self, iteration: int, now: float) -> bool:
        if iteration <= 0:
            return False
        return iteration - self.last_save_iteration >= self.interval

    def begin_save(self, task_id: int, iteration: int) -> tuple[int, ...]:
        self.last_save_iteration = iteration
        peers = self.ring._cached_peers(task_id)
        if not peers:
            self.save_count += 1
            return ()
        n = min(self.replicas, len(peers))
        base = self.save_count
        self.save_count += n
        # n consecutive round-robin slots are distinct whenever n <= len
        return tuple(peers[(base + j) % len(peers)] for j in range(n))

    def on_iteration(self, now: float, duration: float) -> None:
        a = ALPHA
        if self.iter_ewma <= 0.0:
            self.iter_ewma = duration
        else:
            self.iter_ewma = (1.0 - a) * self.iter_ewma + a * duration
        self._retune(now)

    def on_checkpoint(self, nbytes: int) -> None:
        if self.feed is not None:
            self.feed.record_checkpoint(nbytes)

    def on_rollback(self, iteration: int) -> None:
        self.last_save_iteration = iteration
        self.save_count = iteration // max(1, self.interval)

    def backup_peers(self, task_id: int) -> list[int]:
        return self.ring.backup_peers(task_id)

    # -- the adaptation law --------------------------------------------------

    def _retune(self, now: float) -> None:
        spec = self.spec
        tau = self.iter_ewma
        if tau <= 0.0:
            return
        mtbf = self.feed.mtbf(now) if self.feed is not None else None
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
