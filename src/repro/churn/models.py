"""Churn schedules: when machines go down and for how long.

Churn is one axis of the fault plane: :func:`churn_plan` turns a model's
schedule into a :class:`~repro.faults.FaultPlan` of daemon crashes, which
a :class:`~repro.faults.FaultInjector` executes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.faults.actions import DaemonCrash
from repro.faults.plan import FaultPlan
from repro.util.rng import RngTree

__all__ = [
    "ChurnEvent",
    "ChurnModel",
    "PaperChurn",
    "TraceChurn",
    "churn_plan",
]

#: :class:`PaperChurn` disconnects during this share of the horizon, the
#: paper's "during the execution"
CHURN_START = 0.05
CHURN_END = 0.85


@dataclass(frozen=True, order=True)
class ChurnEvent:
    """One disconnection: at ``time``, some host goes down for ``duration``.

    ``host`` is None for "pick a random alive victim at fire time" (the
    paper's protocol) or a host name for trace replay.
    """

    time: float
    duration: float
    host: str | None = None

    def __post_init__(self) -> None:
        if self.time < 0 or self.duration <= 0:
            raise ConfigurationError("time must be >= 0 and duration > 0")


class ChurnModel:
    """Interface: produce the disconnection schedule for one run."""

    def schedule(self, rng: RngTree, horizon: float) -> list[ChurnEvent]:
        raise NotImplementedError  # pragma: no cover


@dataclass(frozen=True)
class PaperChurn(ChurnModel):
    """The paper's protocol: ``n_disconnections`` at uniform-random times in
    ``[CHURN_START·horizon, CHURN_END·horizon]``; each victim
    reconnects ``reconnect_delay`` seconds later (paper: ≈20 s).

    Victims are chosen at fire time among currently-alive computing peers
    (``host=None`` in the emitted events).
    """

    n_disconnections: int
    reconnect_delay: float = 20.0

    def __post_init__(self) -> None:
        if self.n_disconnections < 0:
            raise ConfigurationError("n_disconnections must be >= 0")
        if self.reconnect_delay <= 0:
            raise ConfigurationError("reconnect_delay must be positive")

    def schedule(self, rng: RngTree, horizon: float) -> list[ChurnEvent]:
        if horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        lo = CHURN_START * horizon
        hi = CHURN_END * horizon
        node = rng.child("times")
        times = sorted(
            lo + (hi - lo) * node.unit(i) for i in range(self.n_disconnections)
        )
        return [ChurnEvent(t, self.reconnect_delay) for t in times]


@dataclass(frozen=True)
class TraceChurn(ChurnModel):
    """Replay a fixed schedule (host names pinned), for apples-to-apples
    baseline comparisons and regression tests."""

    events: tuple[ChurnEvent, ...]

    def schedule(self, rng: RngTree, horizon: float) -> list[ChurnEvent]:
        return sorted(self.events)


def churn_plan(model: ChurnModel, rng: RngTree, horizon: float) -> FaultPlan:
    """``model``'s schedule as one :class:`DaemonCrash` per disconnection.

    The schedule is drawn from ``rng.child("schedule")``; hand the same
    ``rng`` to the :class:`~repro.faults.FaultInjector` executing the plan
    and unpinned victims come from ``rng.child("victim")`` on stream
    ``<events so far>`` — the two draws a seeded churn run replays.
    """
    return FaultPlan(
        actions=tuple(
            DaemonCrash(time=event.time, host=event.host,
                        downtime=event.duration)
            for event in model.schedule(rng.child("schedule"), horizon)
        ),
        name="churn",
    )
