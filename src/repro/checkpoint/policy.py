"""Checkpoint strategy layer: the guardian ring, the policy and the one
schedule it binds to.

Paper §5.4: "During the whole execution of an application, a peer always
saves its current Task object on the same set of neighbors (in a round-robin
fashion)" and the experiments use "20 backup-peers ... for each task".

* :func:`guardians` — the placement *ring*: which task indices guard a
  task, nearest first.  Identifying backup-peers by **task index** (not
  daemon identity) is what makes the set stable across replacements: the
  checkpoint goes to whichever Daemon currently runs the guarding task.
* :class:`FixedPolicy` — the *strategy*, a frozen value object: ``count``
  guardians, a save every ``frequency`` iterations (the paper's scheme).
* :class:`CheckpointSchedule` — what :meth:`FixedPolicy.bind` returns per
  task runner: when the next save is due and which guardian takes it.

The policy rides inside :class:`~repro.exec.spec.RunSpec` as a plain
dataclass (``asdict`` / ``FixedPolicy(**d)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

__all__ = ["guardians", "CheckpointSchedule", "FixedPolicy"]


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


@dataclass(frozen=True)
class FixedPolicy:
    """The paper's scheme: every ``frequency`` iterations, round-robin one
    checkpoint across ``count`` guardians.

    Parameters
    ----------
    count:
        Number of backup-peers guarding each task (clamped to
        ``num_tasks - 1``; paper default 20).
    frequency:
        Checkpoint every ``frequency`` iterations — the ``JaceSave``
        setting (paper experiments: 5).

    ``tests/test_checkpoint_policy.py`` holds the bound schedule, step for
    step, to the paper's modulo-``frequency`` path in
    ``tests/oracles/fixed_checkpoint_reference.py``.
    """

    count: int = 20
    frequency: int = 5

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be >= 0")
        if self.frequency < 1:
            raise ValueError("frequency must be >= 1")

    def bind(self, num_tasks: int) -> "CheckpointSchedule":
        """Create the mutable per-runner schedule driving one task's saves."""
        return CheckpointSchedule(self, num_tasks)


class CheckpointSchedule:
    """One task runner's checkpoint schedule, bound from a policy.

    A save is due once ``frequency`` iterations have passed since the last
    one, and goes to the next round-robin slot of the task's
    :func:`guardians` ring.  This is the paper's fixed schedule — due on
    every multiple of ``frequency``, the ``s``-th save to ring slot ``s mod
    len(ring)`` — because a rollback only ever resumes at 0 or at an
    iteration a schedule saved at (a restored Backup's), so every save and
    every resume point is a multiple of ``frequency``, and
    :meth:`on_rollback`'s ``iteration // frequency`` puts the cursor where
    the lost incarnation's was.
    """

    __slots__ = ("spec", "num_tasks", "save_count", "last_save_iteration")

    def __init__(self, spec: FixedPolicy, num_tasks: int):
        self.spec = spec
        self.num_tasks = num_tasks
        self.save_count = 0
        self.last_save_iteration = 0

    def checkpoint_due(self, iteration: int) -> bool:
        """Checkpoint after this iteration?"""
        return iteration - self.last_save_iteration >= self.spec.frequency

    def begin_save(self, task_id: int, iteration: int) -> tuple[int, ...]:
        """The guardian task index for this save (none when nobody guards
        the task); advances the cursor."""
        self.last_save_iteration = iteration
        peers = self.backup_peers(task_id)
        if not peers:
            return ()
        slot = self.save_count
        self.save_count = slot + 1
        return (peers[slot % len(peers)],)

    def on_rollback(self, iteration: int) -> None:
        """Resume after a recovery restored ``iteration``."""
        self.last_save_iteration = iteration
        self.save_count = iteration // self.spec.frequency

    def backup_peers(self, task_id: int) -> tuple[int, ...]:
        return guardians(task_id, self.num_tasks, self.spec.count)
