"""Waitable container: the store (mailbox).

:class:`Store` is the message-queue primitive the transport layer builds on:
producers ``put`` items, consumers ``yield store.get()``.  Gets are served
FIFO.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.des.events import Event
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.kernel import Simulator

__all__ = ["Store"]


class Store:
    """Unbounded-by-default FIFO store.

    ``capacity`` bounds the number of buffered items; a ``put`` beyond
    capacity raises (the simulated network never applies backpressure — a
    bounded mailbox models a drop-tail queue, and callers decide the drop
    policy).
    """

    def __init__(self, sim: "Simulator", capacity: float = float("inf"), name: str = ""):
        if capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: list[Any] = []
        self._getters: list[Event] = []
        self.put_count = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.items)

    def try_put(self, item: Any) -> bool:
        """Deliver ``item``; returns False (and counts a drop) when full."""
        self.put_count += 1
        while self._getters:
            getter = self._getters.pop(0)
            if getter.triggered or getter.orphaned:
                continue  # canceled/interrupted waiter: must not eat items
            getter.succeed(item)
            return True
        if len(self.items) >= self.capacity:
            self.dropped += 1
            return False
        self.items.append(item)
        return True

    def put(self, item: Any) -> None:
        """Deliver ``item`` or raise if the mailbox is full."""
        if not self.try_put(item):
            raise SimulationError(f"store {self.name!r} overflow (capacity={self.capacity})")

    def get(self) -> Event:
        """Return an event that fires with the next available item."""
        ev = Event(self.sim, name=f"get({self.name})")
        if self.items:
            ev.succeed(self.items.pop(0))
        else:
            self._getters.append(ev)
        return ev

    def has_live_getter(self) -> bool:
        """True when at least one waiter would consume a ``put`` right now
        (pending, not orphaned by an interrupt)."""
        for getter in self._getters:
            if not getter.triggered and not getter.orphaned:
                return True
        return False

    def drain(self) -> list[Any]:
        """Remove and return all buffered items (non-blocking)."""
        out, self.items = self.items, []
        return out
