"""Generator-based simulation processes.

A :class:`Process` drives a Python generator: each ``yield``-ed
:class:`~repro.des.events.Event` suspends the generator until that event is
processed, at which point the kernel resumes it with the event's value (or
throws the event's exception into it).

Processes are themselves events — they trigger when the generator returns
(value = the ``return`` value) or raises (failure).  That lets one process
``yield`` another to join it.

:class:`Interrupt` supports asynchronous cancellation: ``proc.interrupt(cause)``
throws an :class:`Interrupt` into the generator at the current simulation
time, *before* any event it was waiting on.  The churn injector uses this to
model a peer being switched off mid-computation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.des.events import Event, PENDING, URGENT
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.kernel import Simulator

__all__ = ["Process", "Interrupt"]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries arbitrary context (for the runtime: the failure
    reason, e.g. ``"churn"``).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        return self.args[0]


class _Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        super().__init__(sim, name="init")
        self._value = None
        self._ok = True
        self.callbacks.append(process._resume)
        sim.push(self, delay=0.0, priority=URGENT)


class Process(Event):
    """A running generator inside the simulation.

    Use :meth:`repro.des.kernel.Simulator.process` to create one.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, sim: "Simulator", generator: Generator, label: str = ""):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"process body must be a generator, got {generator!r}")
        super().__init__(sim, name=label or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._target: Event | None = None
        _Initialize(sim, self)

    # -- public API ----------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process raises; interrupting yourself is
        forbidden (it would corrupt the generator stack).
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self!r}")
        if self.sim._active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        tr = self.sim.tracer
        if tr.enabled:
            tr.emit(self.sim.now, "des", self.name, "process_interrupt",
                    cause=str(cause))
        failure = Event(self.sim, name="interrupt")
        failure._ok = False
        failure._value = Interrupt(cause)
        failure.callbacks.append(self._resume)
        self.sim.push(failure, delay=0.0, priority=URGENT)

    # -- kernel machinery ------------------------------------------------------

    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the trigger event's outcome."""
        if not self.is_alive:
            # Process already finished (e.g. interrupted while a timeout was
            # in flight and then returned); stale wakeups are ignored.
            return
        # Detach from the event we were officially waiting on: if we are
        # being interrupted, the old target may still fire later and must
        # not resume us twice.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None

        sim = self.sim
        prev, sim._active_process = sim._active_process, self
        try:
            if trigger._ok:
                next_ev = self._generator.send(trigger._value)
            else:
                next_ev = self._generator.throw(trigger._value)
        except StopIteration as stop:
            sim._active_process = prev
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            # An unhandled Interrupt terminates the process *without* being
            # treated as an error: this is the normal way a Daemon dies.
            sim._active_process = prev
            self._value = exc
            self._ok = True
            self.sim.push(self, delay=0.0, priority=URGENT)
            return
        except BaseException as exc:
            sim._active_process = prev
            self.fail(exc)
            sim._crashed.append((self, exc))
            return
        sim._active_process = prev

        if not isinstance(next_ev, Event):
            exc = SimulationError(
                f"process {self.name!r} yielded {next_ev!r}; processes must yield events"
            )
            self._generator.close()
            self.fail(exc)
            return
        if next_ev.sim is not self.sim:
            self._generator.close()
            self.fail(SimulationError("yielded an event from a different simulator"))
            return
        if next_ev.processed:
            # Already-processed events resume the waiter immediately (next
            # kernel step) with the stored value.
            relay = Event(self.sim, name="relay")
            relay._ok = next_ev._ok
            relay._value = next_ev._value
            relay.callbacks.append(self._resume)
            self.sim.push(relay, delay=0.0, priority=URGENT)
            self._target = relay
        else:
            next_ev.callbacks.append(self._resume)
            self._target = next_ev

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self.is_alive else "dead"
        return f"<Process {self.name!r} {state}>"
