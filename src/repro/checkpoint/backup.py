"""The Backup object: one local checkpoint of one task."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.util.serialization import (ENVELOPE_BYTES, clone_state,
                                      freeze_state, payload_size)

__all__ = ["Backup"]


@dataclass(frozen=True)
class Backup:
    """An immutable snapshot of a task's state at one iteration.

    A Backup must never alias live task arrays, or later iterations would
    corrupt the checkpoint and rollback would silently resume from a
    half-updated state.  ``dump_state`` already hands the constructor a
    private copy, so the constructor only *freezes* that snapshot
    (``writeable=False`` — accidental aliasing fails loudly instead of
    corrupting) rather than paying a second full deep copy per checkpoint;
    :meth:`restore` clones on the rare recovery, so restored tasks always
    receive writable private arrays.
    """

    task_id: int
    iteration: int
    state: Any
    app_id: str = ""
    created_at: float = 0.0
    #: wire size of this Backup, computed below (not an argument)
    nbytes: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ValueError("iteration must be >= 0")
        freeze_state(self.state)
        # Backups are re-sent on every checkpoint transfer: pay the payload
        # size walk once here rather than on each send.  One walk serves
        # both the memo and the ``nbytes`` accounting: every field except
        # ``state`` is a fixed-size scalar or this app's id string, so the
        # state's charge falls out of the memo by subtraction (the memo is
        # planted with the placeholder ``nbytes=0`` — an int charges 8
        # bytes whatever its value, so the memo stays exact after the
        # rebind below).
        memo = payload_size(self, 0)  # plants the per-instance memo
        shell = 32 + 8 + 8 + 8 + 8 + len(
            self.app_id.encode("utf-8", errors="replace")
        )
        object.__setattr__(self, "nbytes", ENVELOPE_BYTES + memo - shell)

    def restore(self) -> Any:
        """A private *writable* copy of the stored state, safe to hand to
        a new task."""
        return clone_state(self.state)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Backup task={self.task_id} iter={self.iteration} "
            f"{self.nbytes}B app={self.app_id!r}>"
        )
