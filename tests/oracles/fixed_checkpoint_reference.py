"""Reference oracle: the paper's fixed checkpoint schedule (§5.4), the
obvious way.

A save is due on every multiple of ``frequency``; the ``s``-th save goes
to slot ``s mod len(ring)`` of the task's guardian ring; a rollback to
iteration ``r`` replays the schedule up to ``r``, so the cursor resumes at
``r // frequency``.  The ring is the full alternating walk ``k+1, k-1,
k+2, k-2, ...`` with repeats dropped, cut to ``count``.
``tests/test_checkpoint_policy.py`` holds ``FixedPolicy(count,
frequency).bind(num_tasks)`` and ``repro.checkpoint.guardians`` to it.
"""

from __future__ import annotations

__all__ = ["reference_ring", "FixedCheckpointReference"]


def reference_ring(task_id: int, num_tasks: int, count: int) -> list[int]:
    ring: list[int] = []
    for offset in range(1, num_tasks):
        for peer in ((task_id + offset) % num_tasks,
                     (task_id - offset) % num_tasks):
            if peer not in ring:
                ring.append(peer)
    return ring[:count]


class FixedCheckpointReference:
    """One task's saves under the paper's fixed scheme."""

    def __init__(self, task_id: int, num_tasks: int, count: int,
                 frequency: int):
        self.ring = reference_ring(task_id, num_tasks, count)
        self.frequency = frequency
        self.saves = 0

    def due(self, iteration: int) -> bool:
        return iteration > 0 and iteration % self.frequency == 0

    def save(self) -> tuple[int, ...]:
        """The guardian of the next save (none when nobody guards us)."""
        index = self.saves
        self.saves += 1
        if not self.ring:
            return ()
        return (self.ring[index % len(self.ring)],)

    def rollback(self, iteration: int) -> None:
        self.saves = iteration // self.frequency
