"""``repro.checkpoint`` — Backup objects and rollback recovery (paper §5.4).

JaceP2P tolerates Daemon failures with uncoordinated checkpointing: because
iterations are asynchronous, *any* set of local checkpoints is a consistent
global state, so only the replacement peer rolls back — everyone else keeps
computing.  The pieces:

* :class:`Backup` — an immutable snapshot ``(task, epoch, iteration,
  state)``;
* :class:`BackupStore` — the per-Daemon container holding the latest Backup
  received for each task it guards;
* :func:`guardians` — who guards whom: a fixed neighbour set per task;
* :class:`FixedPolicy` — the paper's ``JaceSave`` every ``frequency``
  iterations; it binds to one
  :class:`~repro.checkpoint.policy.CheckpointSchedule` per task runner,
  which sends each successive checkpoint round-robin around the guardians;
* :func:`choose_latest` — the recovery rule: restart from the newest
  ``(epoch, iteration)`` found among the surviving backup-peers.
"""

from repro.checkpoint.backup import Backup
from repro.checkpoint.store import BackupStore
from repro.checkpoint.policy import FixedPolicy, guardians
from repro.checkpoint.recovery import choose_latest

__all__ = [
    "Backup",
    "BackupStore",
    "guardians",
    "FixedPolicy",
    "choose_latest",
]
