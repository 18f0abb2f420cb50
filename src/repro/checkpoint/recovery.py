"""The rollback-recovery decision rule (paper §5.4, Fig. 6).

A replacement Daemon asks every backup-peer of its task for the iteration
number of the checkpoint it holds, then reloads the **most recent** one.
If no backup-peer survives (or none ever received a checkpoint), the task
restarts from iteration 0.
"""

from __future__ import annotations

__all__ = ["choose_latest"]


def choose_latest(offers: dict[int, int | None]) -> int | None:
    """Pick the backup-peer (task index) holding the newest checkpoint.

    ``offers`` maps backup-peer task index → iteration held (None for "no
    checkpoint" / "peer unreachable").  Ties break toward the lowest peer
    index for determinism.  Returns None when nothing is recoverable.
    """
    best_peer: int | None = None
    best_iter = -1
    for peer in sorted(offers):
        iteration = offers[peer]
        if iteration is None:
            continue
        if iteration > best_iter:
            best_peer, best_iter = peer, iteration
    return best_peer
