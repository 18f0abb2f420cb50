"""Stable storage for Spawner state — the §4.2 future-work direction.

"The Spawner is the only entity of the system to be stable.  In future
work, we plan to study how to make it tolerant to failures."

This module implements that study: a :class:`StableStore` models the
application programmer's disk (it survives the machine's process dying),
and the Spawner persists its recovery-critical state — the Application
Register with its epochs, and its port — into it on every membership
change.  :func:`repro.p2p.cluster.resume_application` then boots a fresh
Spawner from the stored snapshot after the machine returns.

What does *not* need persisting, and why:

* the convergence array — Daemon heartbeats piggyback the current local
  stability bit every period, so a resumed Spawner relearns the whole
  array within one heartbeat;
* liveness timestamps — the resumed Spawner grants every assigned slot a
  fresh grace period and lets the heartbeats re-establish themselves;
* in-flight reservations — the maintenance loop simply re-reserves
  whatever is missing.

The computing Daemons never notice the outage beyond their heartbeats
going unanswered: asynchronous tasks don't need the Spawner to make
progress, which is exactly why this recovery is cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.p2p.messages import ApplicationRegister

__all__ = ["SpawnerSnapshot", "StableStore"]


@dataclass(frozen=True)
class SpawnerSnapshot:
    """Everything a replacement Spawner needs to take over."""

    app_id: str
    register: ApplicationRegister
    spawner_port: int
    saved_at: float
    #: leadership-fencing number of the Spawner that wrote the snapshot; a
    #: resumed Spawner reigns at ``reign + 1`` so standbys and daemons can
    #: order competing leaders
    reign: int = 1


class StableStore:
    """Durable key-value storage for Spawner snapshots (one per app).

    Models a file on the application programmer's disk: host failures do
    not touch it.  Snapshots are stored as independent copies so later
    Spawner mutations never leak into the stored state.
    """

    def __init__(self) -> None:
        self._snapshots: dict[str, SpawnerSnapshot] = {}
        self.saves = 0

    def save(self, app_id: str, register: ApplicationRegister,
             spawner_port: int, now: float, reign: int = 1) -> None:
        self._snapshots[app_id] = SpawnerSnapshot(
            app_id=app_id,
            register=register.snapshot(),
            spawner_port=spawner_port,
            saved_at=now,
            reign=reign,
        )
        self.saves += 1

    def load(self, app_id: str) -> SpawnerSnapshot | None:
        snap = self._snapshots.get(app_id)
        if snap is None:
            return None
        # hand out a copy: the caller will mutate the register
        return SpawnerSnapshot(
            app_id=snap.app_id,
            register=snap.register.snapshot(),
            spawner_port=snap.spawner_port,
            saved_at=snap.saved_at,
            reign=snap.reign,
        )

    def forget(self, app_id: str) -> None:
        self._snapshots.pop(app_id, None)

    def __contains__(self, app_id: str) -> bool:
        return app_id in self._snapshots
