"""Per-Daemon backup storage.

Each Daemon guards the checkpoints of a fixed set of neighbour tasks
(paper §5.4).  Per guarded task the store keeps only the **latest** Backup
received — matching the paper's rotation, where "the Backup stored at
iteration ite2 for task T2 would then replace that of iteration ite0".
A stale Backup (lower iteration than what is already held) is rejected;
this can happen when checkpoint messages are reordered in flight.
"""

from __future__ import annotations

from repro.checkpoint.backup import Backup

__all__ = ["BackupStore"]


class BackupStore:
    """Latest-Backup-per-task container with byte accounting.

    ``max_bytes`` models the guardian machine's RAM budget (the paper's
    Daemons run on 256 MB–1 GB PCs while guarding up to 20 neighbours'
    checkpoints): a save that would exceed the budget is rejected — the
    checkpoint is simply lost, exactly like one addressed to a dead peer,
    and the multi-guardian policy absorbs it.  Replacing a task's own
    older Backup never counts against the budget twice.
    """

    def __init__(self, max_bytes: float = float("inf")) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self._backups: dict[tuple[str, int], Backup] = {}
        self.max_bytes = max_bytes
        self.saves_accepted = 0
        self.saves_rejected_stale = 0
        self.saves_rejected_capacity = 0

    @staticmethod
    def _key(app_id: str, task_id: int) -> tuple[str, int]:
        return (app_id, task_id)

    def save(self, backup: Backup) -> bool:
        """Store ``backup``; returns False (and keeps the old one) if an
        equal-or-newer checkpoint of the same task is already held, or if
        the RAM budget would be exceeded."""
        key = self._key(backup.app_id, backup.task_id)
        held = self._backups.get(key)
        if held is not None and held.iteration >= backup.iteration:
            self.saves_rejected_stale += 1
            return False
        occupied = self.total_bytes - (held.nbytes if held is not None else 0)
        if occupied + backup.nbytes > self.max_bytes:
            self.saves_rejected_capacity += 1
            return False
        self._backups[key] = backup
        self.saves_accepted += 1
        return True

    def iteration_of(self, app_id: str, task_id: int) -> int | None:
        """Iteration number held for a task, or None."""
        backup = self._backups.get(self._key(app_id, task_id))
        return backup.iteration if backup is not None else None

    def load(self, app_id: str, task_id: int) -> Backup | None:
        return self._backups.get(self._key(app_id, task_id))

    def drop(self, app_id: str, task_id: int) -> None:
        self._backups.pop(self._key(app_id, task_id), None)

    def drop_app(self, app_id: str) -> None:
        """Forget every checkpoint of a finished application."""
        for key in [k for k in self._backups if k[0] == app_id]:
            del self._backups[key]

    @property
    def total_bytes(self) -> int:
        return sum(b.nbytes for b in self._backups.values())

    def __len__(self) -> int:
        return len(self._backups)
