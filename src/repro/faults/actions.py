"""Typed fault actions: the vocabulary of the fault plane.

Each :class:`FaultAction` subclass is one thing that can go wrong in a
JaceP2P deployment, at a given simulated time:

* :class:`DaemonCrash` — a computing peer powers off (and, with a
  ``downtime``, reconnects later): the paper's §7 disconnection protocol,
  previously the only fault axis (:mod:`repro.churn`);
* :class:`SuperPeerCrash` — an entry-point node dies; idle Daemons whose
  heartbeats fail must relocate to a surviving Super-Peer (§5.3's "if a
  Super-Peer fails, the Daemons ... register to another Super-Peer");
* :class:`PartitionAction` / :class:`HealAction` — the network splits into
  groups that cannot exchange messages (partial connectivity, the regime
  studied by Sens et al.'s failure detectors);
* :class:`MessageCorruption` — a window during which asynchronous data
  payloads are perturbed in transit (silent data corruption, the axis of
  Vogl et al.'s corruption-resilient asynchronous Jacobi);
* :class:`RackFailure` — a correlated failure: a victim peer *and* the
  backup-peers guarding its checkpoints go down together, stressing §5.4's
  multi-backup strategy at its weakest point;
* :class:`SpawnerCrash` — the "one stable entity" itself dies for good
  (§4.2's future-work direction): with a warm standby the run fails over
  mid-run (docs/gossip.md).

Actions are frozen, hashable and JSON-round-trippable (``to_dict`` /
:func:`action_from_dict`), so a :class:`~repro.faults.plan.FaultPlan` can
live inside a content-addressed :class:`~repro.exec.spec.RunSpec`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import ClassVar

from repro.errors import ConfigurationError

__all__ = [
    "FaultAction",
    "DaemonCrash",
    "SuperPeerCrash",
    "PartitionAction",
    "HealAction",
    "MessageCorruption",
    "RackFailure",
    "SpawnerCrash",
    "action_from_dict",
]


@dataclass(frozen=True)
class FaultAction:
    """Base class: something goes wrong at simulated ``time``."""

    time: float
    kind: ClassVar[str] = ""

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError("fault time must be >= 0")

    def to_dict(self) -> dict:
        """JSON-ready dump, tagged with the action ``kind``."""
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True)
class DaemonCrash(FaultAction):
    """Power off one computing peer; reconnect ``downtime`` seconds later.

    ``host=None`` picks a random alive victim at fire time (preferring
    currently-computing Daemons, like the paper's protocol); a host name
    pins the victim for trace replay.  ``downtime=None`` makes the crash
    permanent.
    """

    host: str | None = None
    downtime: float | None = None
    kind: ClassVar[str] = "daemon_crash"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.downtime is not None and self.downtime <= 0:
            raise ConfigurationError("downtime must be positive (or None)")


@dataclass(frozen=True)
class SuperPeerCrash(FaultAction):
    """Kill a Super-Peer; reboot it ``downtime`` seconds later.

    Daemons registered to (or bootstrapping against) the dead Super-Peer
    observe failed heartbeats and re-register with a surviving one (§5.3).
    ``sp_id=None`` picks a random alive Super-Peer at fire time;
    ``downtime=None`` leaves it down for good.
    """

    sp_id: str | None = None
    downtime: float | None = None
    kind: ClassVar[str] = "superpeer_crash"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.downtime is not None and self.downtime <= 0:
            raise ConfigurationError("downtime must be positive (or None)")


@dataclass(frozen=True)
class PartitionAction(FaultAction):
    """Split the network into ``groups`` of host names (§5.3 reachability).

    Hosts not named in any group form one implicit extra group (the
    semantics of :meth:`repro.net.network.Network.partition`).  With a
    ``duration`` the partition heals itself; otherwise it lasts until a
    :class:`HealAction` fires.
    """

    groups: tuple[tuple[str, ...], ...] = ()
    duration: float | None = None
    kind: ClassVar[str] = "partition"

    def __post_init__(self) -> None:
        super().__post_init__()
        # tolerate lists (e.g. straight out of JSON) by freezing them
        object.__setattr__(
            self, "groups", tuple(tuple(group) for group in self.groups)
        )
        if not self.groups:
            raise ConfigurationError("partition needs at least one group")
        if self.duration is not None and self.duration <= 0:
            raise ConfigurationError("duration must be positive (or None)")


@dataclass(frozen=True)
class HealAction(FaultAction):
    """Remove the current partition (no-op when none is active)."""

    kind: ClassVar[str] = "heal"


@dataclass(frozen=True)
class MessageCorruption(FaultAction):
    """Corrupt asynchronous data payloads in transit for ``duration`` s.

    While active, each delivered ``receive_data`` message is independently
    corrupted with probability ``rate``: one entry of the boundary-value
    payload is overwritten with a value scaled by ``magnitude`` — the
    silent-data-corruption model of Vogl et al.  Control traffic (RMI
    calls, heartbeats, register broadcasts, checkpoints) is never touched:
    the claim under test is that the *asynchronous iteration* absorbs bad
    data, not that the protocols survive malformed control messages.
    """

    duration: float = 0.0
    rate: float = 0.05
    magnitude: float = 1e3
    kind: ClassVar[str] = "corruption"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.duration <= 0:
            raise ConfigurationError("corruption duration must be positive")
        if not 0.0 < self.rate <= 1.0:
            raise ConfigurationError("corruption rate must be in (0, 1]")
        if self.magnitude == 0:
            raise ConfigurationError("corruption magnitude must be non-zero")


@dataclass(frozen=True)
class RackFailure(FaultAction):
    """Correlated crash: a victim peer plus the guardians of its checkpoints.

    The victim's task names its backup-peers through the §5.4 guardian
    ring (:func:`~repro.checkpoint.policy.guardians`); every Daemon currently
    running one of those tasks is powered off in the same instant as the
    victim.  With every Backup of the victim's task gone, recovery must
    restart from iteration 0 — the worst case of Fig. 6.
    """

    host: str | None = None
    downtime: float | None = None
    kind: ClassVar[str] = "rack_failure"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.downtime is not None and self.downtime <= 0:
            raise ConfigurationError("downtime must be positive (or None)")


@dataclass(frozen=True)
class SpawnerCrash(FaultAction):
    """Kill the Spawner machine for good — the system's single stable
    entity (§4.2).

    Computing Daemons keep iterating (asynchronous tasks need no Spawner
    to make progress); a warm :class:`~repro.p2p.standby.StandbySpawner`
    detects the leadership-beat silence over gossip and takes over the
    run.  The machine never returns: no peer's disk is stable, so there
    is nothing for it to resume from.
    """

    kind: ClassVar[str] = "spawner_crash"


_ACTION_TYPES: dict[str, type[FaultAction]] = {
    cls.kind: cls
    for cls in (
        DaemonCrash,
        SuperPeerCrash,
        PartitionAction,
        HealAction,
        MessageCorruption,
        RackFailure,
        SpawnerCrash,
    )
}


def action_from_dict(data: dict) -> FaultAction:
    """Inverse of :meth:`FaultAction.to_dict`."""
    data = dict(data)
    kind = data.pop("kind", None)
    cls = _ACTION_TYPES.get(kind)
    if cls is None:
        raise ConfigurationError(f"unknown fault action kind {kind!r}")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(
            f"unknown field(s) {sorted(unknown)} for fault action {kind!r}"
        )
    return cls(**data)
