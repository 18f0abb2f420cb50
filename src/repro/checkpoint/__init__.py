"""``repro.checkpoint`` — Backup objects and rollback recovery (paper §5.4).

JaceP2P tolerates Daemon failures with uncoordinated checkpointing: because
iterations are asynchronous, *any* set of local checkpoints is a consistent
global state, so only the replacement peer rolls back — everyone else keeps
computing.  The pieces:

* :class:`Backup` — an immutable snapshot ``(task, epoch, iteration,
  state)``;
* :class:`BackupStore` — the per-Daemon container holding the latest Backup
  received for each task it guards;
* :class:`BackupPolicy` — who guards whom (a fixed neighbour set per task)
  and where each successive checkpoint goes (round-robin), plus the
  ``JaceSave`` frequency rule;
* :func:`choose_latest` — the recovery rule: restart from the newest
  ``(epoch, iteration)`` found among the surviving backup-peers.
"""

from repro.checkpoint.backup import Backup
from repro.checkpoint.store import BackupStore
from repro.checkpoint.policy import (AdaptivePolicy, BackupPolicy,
                                     CheckpointPolicy, FixedPolicy,
                                     policy_from_dict)
from repro.checkpoint.feed import FailureFeed
from repro.checkpoint.recovery import choose_latest

__all__ = [
    "Backup",
    "BackupStore",
    "BackupPolicy",
    "CheckpointPolicy",
    "FixedPolicy",
    "AdaptivePolicy",
    "FailureFeed",
    "policy_from_dict",
    "choose_latest",
]
