"""Thread-safe last-write-wins channels.

The asynchronous model's mailbox semantics (§4.1): a receiver only ever
wants the *freshest* value from each neighbour; older unconsumed values are
worthless and are overwritten.  :class:`LatestValueChannel` is that cell;
:class:`MailboxSet` groups one cell per (src → dst) pair for a whole
application.
"""

from __future__ import annotations

import threading
from typing import Any

__all__ = ["LatestValueChannel", "MailboxSet"]


class LatestValueChannel:
    """A single-slot overwrite-on-put channel."""

    __slots__ = ("_lock", "_value", "_fresh")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value: Any = None
        self._fresh = False

    def put(self, value: Any) -> None:
        with self._lock:
            self._value = value
            self._fresh = True

    def take(self) -> tuple[bool, Any]:
        """(fresh, value): pops the value if fresh, else (False, None)."""
        with self._lock:
            if not self._fresh:
                return (False, None)
            self._fresh = False
            value, self._value = self._value, None
            return (True, value)


class MailboxSet:
    """One channel per (src, dst) pair of an n-task application."""

    def __init__(self, num_tasks: int):
        if num_tasks < 1:
            raise ValueError("num_tasks must be >= 1")
        self.num_tasks = num_tasks
        self._channels: dict[tuple[int, int], LatestValueChannel] = {
            (s, d): LatestValueChannel()
            for s in range(num_tasks)
            for d in range(num_tasks)
            if s != d
        }

    def send(self, src: int, dst: int, value: Any) -> None:
        self._channels[(src, dst)].put(value)

    def collect(self, dst: int) -> dict[int, Any]:
        """Fresh values addressed to ``dst``, consuming them."""
        inbox: dict[int, Any] = {}
        for src in range(self.num_tasks):
            if src == dst:
                continue
            fresh, value = self._channels[(src, dst)].take()
            if fresh:
                inbox[src] = value
        return inbox
