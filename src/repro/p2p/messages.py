"""Shared protocol data: the Application Register and application specs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.rmi.stub import Stub

__all__ = ["TaskSlot", "ApplicationRegister", "AppSpec"]


@dataclass
class TaskSlot:
    """The mapping of one task onto (at most) one Daemon.

    ``epoch`` counts assignments of this slot: 0 = never assigned; it lets
    Daemons and the Spawner discard messages from a previous incarnation of
    the task after a replacement.
    """

    task_id: int
    daemon_id: str | None = None
    daemon_stub: Stub | None = None
    epoch: int = 0

    @property
    def assigned(self) -> bool:
        return self.daemon_stub is not None


@dataclass
class ApplicationRegister:
    """The Spawner's ``AppliReg`` (§5.2): "the whole configuration of the
    peers running a given application and the mapping of the Tasks over the
    Daemons", broadcast to every computing peer on each membership change.
    """

    app_id: str
    version: int = 0
    slots: list[TaskSlot] = field(default_factory=list)

    @classmethod
    def empty(cls, app_id: str, num_tasks: int) -> "ApplicationRegister":
        return cls(app_id=app_id, version=0,
                   slots=[TaskSlot(task_id=i) for i in range(num_tasks)])

    @property
    def num_tasks(self) -> int:
        return len(self.slots)

    def stub_of(self, task_id: int) -> Stub | None:
        return self.slots[task_id].daemon_stub

    def slot(self, task_id: int) -> TaskSlot:
        return self.slots[task_id]

    def assigned_count(self) -> int:
        return sum(s.assigned for s in self.slots)

    def snapshot(self) -> "ApplicationRegister":
        """A shallow-frozen copy safe to ship over the network (slots are
        copied; stubs are immutable)."""
        return ApplicationRegister(
            app_id=self.app_id,
            version=self.version,
            slots=[
                TaskSlot(s.task_id, s.daemon_id, s.daemon_stub, s.epoch)
                for s in self.slots
            ],
        )


@dataclass
class RegisterDelta:
    """An incremental Application-Register update (§8's broadcast
    improvement): only the slots that changed between two versions.

    A receiver whose register is exactly at ``from_version`` applies the
    changes; anyone else has missed an update (e.g. a lost broadcast) and
    must pull a full snapshot from the Spawner instead.
    """

    app_id: str
    from_version: int
    to_version: int
    changes: list[TaskSlot] = field(default_factory=list)


@dataclass
class AppSpec:
    """What the user hands the Spawner (§5.2): the application code location
    (here: a Task factory — the stand-in for the paper's "URL of a web
    server where the class files are available"), the number of computing
    nodes, and the application arguments.
    """

    app_id: str
    task_factory: Callable[[], Any]
    num_tasks: int
    params: dict = field(default_factory=dict)
    #: per-app overrides of the convergence threshold / stability window
    convergence_threshold: float | None = None
    stability_window: int | None = None

    def __post_init__(self) -> None:
        if not self.app_id:
            raise ConfigurationError("app_id must be non-empty")
        if self.num_tasks < 1:
            raise ConfigurationError("num_tasks must be >= 1")

    def convergence(self, threshold: float, window: int) -> tuple[float, int]:
        """``(threshold, window)`` for this app: its own overrides win over
        the engine defaults passed in."""
        return (
            threshold if self.convergence_threshold is None
            else self.convergence_threshold,
            window if self.stability_window is None else self.stability_window,
        )
