"""The rollback-recovery decision rule (paper §5.4, Fig. 6).

A replacement Daemon asks every backup-peer of its task for the version
of the checkpoint it holds, then reloads the **most recent** one: the
newest incarnation (epoch) first, then the highest iteration, so a
superseded incarnation's Backups never outrank its replacement's.  If no
backup-peer survives (or none ever received a checkpoint), the task
restarts from iteration 0.
"""

from __future__ import annotations

__all__ = ["choose_latest"]


def choose_latest(offers: dict[int, tuple[int, int] | None]) -> int | None:
    """Pick the backup-peer (task index) holding the newest checkpoint.

    ``offers`` maps backup-peer task index → ``(epoch, iteration)`` held
    (None for "no checkpoint" / "peer unreachable").  Ties break toward
    the lowest peer index for determinism.  Returns None when nothing is
    recoverable.
    """
    best_peer: int | None = None
    best = None
    for peer in sorted(offers):
        version = offers[peer]
        if version is None:
            continue
        if best is None or version > best:
            best_peer, best = peer, version
    return best_peer
