"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence with a value (or an exception).
Processes wait on events by ``yield``-ing them; the kernel resumes the
process when the event is *processed*.  :class:`Timeout` is the only event
the kernel schedules by time; everything else is triggered by library code
(a call's reply, process termination, ...).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.kernel import Simulator

__all__ = ["PENDING", "Event", "Timeout", "Condition", "AllOf", "AnyOf", "ConditionValue"]

#: Sentinel for "event has no value yet".
PENDING = object()

# Scheduling priorities: lower runs first at equal times.  Interrupts beat
# normal events so a killed process never executes one extra step at the
# failure instant.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence.

    States: *pending* (created), *triggered* (given a value and queued),
    *processed* (callbacks ran).  An event may only be triggered once.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_processed", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = PENDING
        self._ok = True
        self._processed = False
        self.name = name

    # -- state inspection --------------------------------------------------

    @property
    def triggered(self) -> bool:
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event carries a value, False if it carries a failure."""
        if not self.triggered:
            raise SimulationError(f"event {self!r} not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError(f"event {self!r} not yet triggered")
        return self._value

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"event {self!r} already triggered")
        self._value = value
        self._ok = True
        self.sim._enqueue(self, delay=0.0, priority=priority)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception (re-raised in the waiter)."""
        if self.triggered:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._value = exc
        self._ok = False
        self.sim._enqueue(self, delay=0.0, priority=NORMAL)
        return self

    # -- kernel hooks --------------------------------------------------------

    def _run_callbacks(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, None
        for cb in callbacks or ():
            cb(self)

    def _label(self) -> str:
        """The label :meth:`__repr__` shows: built on demand, so events
        created by the million carry no formatted string."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "processed" if self._processed else "triggered" if self.triggered else "pending"
        )
        label = self._label()
        label = f" {label!r}" if label else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        super().__init__(sim)
        self.delay = float(delay)
        self._value = None
        self._ok = True
        sim._enqueue(self, delay=self.delay, priority=NORMAL)

    def _label(self) -> str:
        return f"timeout({self.delay})"


class ConditionValue:
    """Ordered mapping of the events collected by a fired condition."""

    def __init__(self, events: list[Event]):
        self.events = events

    def __getitem__(self, ev: Event) -> Any:
        if ev not in self.events:
            raise KeyError(ev)
        return ev.value

    def __contains__(self, ev: Event) -> bool:
        return ev in self.events

    def values(self) -> list[Any]:
        return [ev.value for ev in self.events]

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConditionValue({self.events!r})"


class Condition(Event):
    """Composite event over a set of sub-events.

    Fires when ``evaluate(events, n_done)`` returns True.  Failure of any
    sub-event fails the condition immediately (fail-fast).
    """

    __slots__ = ("_events", "_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._done = 0
        for ev in self._events:
            if ev.sim is not sim:
                raise SimulationError("condition spans multiple simulators")
        if not self._events:
            self.succeed(ConditionValue([]))
            return
        for ev in self._events:
            if ev.processed:
                self._on_sub(ev)
            else:
                ev.callbacks.append(self._on_sub)

    def evaluate(self, n_done: int, n_total: int) -> bool:  # pragma: no cover
        raise NotImplementedError

    def _on_sub(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._done += 1
        if self.evaluate(self._done, len(self._events)):
            # Use ``processed`` (not ``triggered``): a Timeout stores its
            # value at construction time, so ``triggered`` cannot tell a
            # fired timeout from a merely scheduled one.
            fired = [e for e in self._events if e.processed and e._ok]
            self.succeed(ConditionValue(fired))


class AllOf(Condition):
    """Fires when every sub-event has fired."""

    __slots__ = ()

    def evaluate(self, n_done: int, n_total: int) -> bool:
        return n_done == n_total


class AnyOf(Condition):
    """Fires when at least one sub-event has fired."""

    __slots__ = ()

    def evaluate(self, n_done: int, n_total: int) -> bool:
        return n_done >= 1
