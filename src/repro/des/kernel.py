"""The simulation kernel: a deterministic event loop.

The heap orders events by ``(time, priority, sequence)``.  The sequence
number makes simultaneous events process in creation order, which removes
every source of nondeterminism other than the seeded RNG streams.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, Iterable

from repro.des import collector
from repro.des.events import NORMAL, AllOf, AnyOf, Event, Timeout
from repro.des.process import Process
from repro.errors import SimulationError
from repro.obs.trace import NULL_TRACER, Tracer

__all__ = ["Simulator", "TimerWheel", "ScheduledCall"]

#: ``event_count & _CREDIT_MASK == 0`` once per collector young stride
_CREDIT_MASK = collector.YOUNG_STRIDE - 1


class ScheduledCall:
    """A bare scheduled callback: the fire-once / no-waiters lane.

    One-shot deferred calls that nothing ever waits on (RMI call
    deadlines, timer-wheel slots, a bootstrap sweep's retry backoff) need
    none of a :class:`~repro.des.events.Timeout`'s machinery — a callbacks
    list, a value slot, a closure per call.  A ``ScheduledCall`` is just
    ``(fn, args)``, duck-typing the one kernel hook (``_run_callbacks``)
    the event loop invokes.  A message in flight is not one: the
    :class:`~repro.net.network.Message` is its own heap entry.

    Entries come from (and return to) the simulator's free list: every
    entry is recycled the moment it fires, so nothing outside the kernel
    ever holds one.
    """

    __slots__ = ("sim", "fn", "args")

    def __init__(self, sim: "Simulator", fn: Callable | None, args: tuple):
        self.sim = sim
        self.fn = fn
        self.args = args

    # -- kernel hook (duck-types Event._run_callbacks) ----------------------

    def _run_callbacks(self) -> None:
        self.fn(*self.args)
        self.fn = None
        self.args = ()
        self.sim._call_pool.append(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ScheduledCall {getattr(self.fn, '__name__', self.fn)}>"


class Simulator:
    """Discrete-event simulator.

    An uncaught exception inside a process aborts :meth:`run` by re-raising
    it — silent process crashes hide protocol bugs.  An unhandled
    :class:`~repro.des.process.Interrupt` is *not* an error (it is the
    normal way churn kills a peer).

    Parameters
    ----------
    tracer:
        The observability trace bus (:mod:`repro.obs`).  Defaults to the
        no-op :data:`~repro.obs.trace.NULL_TRACER`; every layer built on
        this kernel reads ``sim.tracer`` at emit time, so attaching a
        recording :class:`~repro.obs.trace.Tracer` (before or after
        construction) turns the whole stack's instrumentation on.
    """

    #: callbacks that shared a heap entry: always 0 (there is one callback
    #: lane, one heap entry per call).  Kept only because the perf ledger
    #: reads it; the next ledger PR drops ``des.batched_calls`` together
    #: with the pinned ``compute.flushes``, ``deferred`` and
    #: ``batched_columns``.
    batched_calls = 0

    def __init__(self, tracer: Tracer | None = None):
        self.now = 0.0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._heap: list[tuple[float, int, int, Any]] = []
        self._seq = 0
        self._active_process: Process | None = None
        self._crashed: list[tuple[Process, BaseException]] = []
        #: processed events; a delivered message adds its dispatch as a
        #: second one (:meth:`repro.net.network.Network._deliver`)
        self.event_count = 0
        #: ``event_count`` as of the last hand-over to :mod:`repro.des.collector`
        self._credited = 0
        #: free list of recycled :class:`ScheduledCall` entries (see
        #: :meth:`call_later`)
        self._call_pool: list[ScheduledCall] = []

    # -- factory helpers -------------------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float) -> Timeout:
        return Timeout(self, delay)

    def process(self, generator: Generator, label: str = "") -> Process:
        proc = Process(self, generator, label=label)
        tr = self.tracer
        if tr.enabled:
            tr.emit(self.now, "des", proc.name, "process_spawn")
        return proc

    def call_later(self, delay: float, fn: Callable, *args) -> None:
        """Schedule a bare callback ``fn(*args)`` after ``delay`` seconds.

        A lightweight alternative to spawning a :class:`Process` for
        straight-line deferred work (an RMI call deadline, a timer-wheel
        slot): one heap entry from the free-list pool, pushed by
        :meth:`push`, no generator, no initialize/completion events.  The
        callback runs with ``now`` advanced to the fire time, exactly like
        a process resumed by a :class:`Timeout` of the same delay.  Nothing
        is returned: the call cannot be cancelled or waited on — use
        :meth:`timeout` when a process must wait.
        """
        pool = self._call_pool
        if pool:
            call = pool.pop()
            call.fn = fn
            call.args = args
        else:
            call = ScheduledCall(self, fn, args)
        self.push(call, delay, NORMAL)

    def timer_wheel(self, slot_width: float) -> "TimerWheel":
        """Create a :class:`TimerWheel` with slots of ``slot_width`` seconds."""
        return TimerWheel(self, slot_width)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    @property
    def active_process(self) -> Process | None:
        return self._active_process

    # -- scheduling -------------------------------------------------------------

    def push(self, entry: Any, delay: float, priority: int) -> None:
        """Put ``entry`` on the heap, due ``delay`` seconds from now: the one
        way onto it.  ``entry`` is anything with a ``_run_callbacks()``
        hook: an :class:`Event`, a :class:`ScheduledCall` or a
        :class:`~repro.net.network.Message` in flight."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, priority, self._seq, entry))

    def step(self) -> None:
        """Process exactly one event."""
        if not self._heap:
            raise SimulationError("step() on an empty schedule")
        when, _prio, _seq, event = heapq.heappop(self._heap)
        if when < self.now:  # pragma: no cover - defensive
            raise SimulationError("event heap went backwards")
        self.now = when
        event._run_callbacks()
        self.event_count += 1
        if self._crashed:
            self._raise_crashed()

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the schedule drains, a deadline passes, or an event fires.

        * ``until=None`` — run to exhaustion.
        * ``until=<float>`` — run while events are scheduled strictly before
          the deadline, then set ``now`` to the deadline.
        * ``until=<Event>`` — run until that event is processed; returns its
          value (re-raising if it failed).

        Automatic garbage collection is suspended for the duration and
        driven from the event counter instead (:mod:`repro.des.collector`);
        the caller's collector state is restored on return or raise.
        """
        collector.enter()
        try:
            return self._drain(until)
        finally:
            self._credit_collector()
            collector.leave()

    def _credit_collector(self) -> None:
        """Hand the events drained since the last hand-over to the collector
        discipline (which may run a pass)."""
        count = self.event_count
        collector.credit(count - self._credited)
        self._credited = count

    def _drain(self, until: float | Event | None) -> Any:
        # The three drain loops below are :meth:`step` unrolled with the
        # heap, pop function, and crash list hoisted into locals, so the
        # per-event cost is a couple of attribute writes instead of half
        # a dozen reads — at a million-plus events per run this is worth
        # seconds of wall-clock.  ``event_count`` is updated *per event*
        # (not batched into a local): callbacks observe it live, and the
        # network adds each delivered message's dispatch to it mid-run.  The
        # masked test on it is the collector valve: one integer test per
        # event, one hand-over per young stride.
        heap = self._heap
        pop = heapq.heappop
        crashed = self._crashed
        mask = _CREDIT_MASK

        if until is None:
            while heap:
                when, _prio, _seq, event = pop(heap)
                self.now = when
                event._run_callbacks()
                count = self.event_count = self.event_count + 1
                if not count & mask:
                    self._credit_collector()
                if crashed:
                    self._raise_crashed()
            return None

        if isinstance(until, Event):
            sentinel = until
            if sentinel.sim is not self:
                raise SimulationError("until-event belongs to a different simulator")
            while not sentinel._processed:
                if not heap:
                    raise SimulationError(
                        "schedule drained before the until-event fired (deadlock?)"
                    )
                when, _prio, _seq, event = pop(heap)
                self.now = when
                event._run_callbacks()
                count = self.event_count = self.event_count + 1
                if not count & mask:
                    self._credit_collector()
                if crashed:
                    self._raise_crashed()
            if not sentinel._ok:
                raise sentinel._value
            return sentinel._value

        deadline = float(until)
        if deadline < self.now:
            raise SimulationError(f"deadline {deadline} is in the past (now={self.now})")
        while heap and heap[0][0] <= deadline:
            when, _prio, _seq, event = pop(heap)
            self.now = when
            event._run_callbacks()
            count = self.event_count = self.event_count + 1
            if not count & mask:
                self._credit_collector()
            if crashed:
                self._raise_crashed()
        self.now = deadline
        return None

    def _raise_crashed(self) -> None:
        """Abort the run on the first process crash."""
        proc, exc = self._crashed[0]
        raise SimulationError(
            f"process {proc.name!r} crashed at t={self.now}: {exc!r}"
        ) from exc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Simulator t={self.now} queued={len(self._heap)}>"


class TimerWheel:
    """A slotted periodic timer: many timers, one heap entry per slot.

    Every registered callback fires on each slot boundary (multiples of
    ``slot_width``) from a single kernel event, in registration order.
    This is the swarm-scale replacement for one-DES-process-per-Daemon
    heartbeating: 10 000 Daemons on a wheel cost one heap entry and one
    callback sweep per heartbeat period instead of 10 000 generator
    resumptions, Timeout allocations and heap operations.

    A callback deregisters itself by returning ``False`` (any other
    return value keeps it).

    Determinism: slots fire through the ordinary event heap, callbacks
    within a slot run in registration order, and entries registered while
    a slot is firing first run on the *next* boundary.
    """

    def __init__(self, sim: Simulator, slot_width: float):
        if slot_width <= 0:
            raise SimulationError(f"slot_width must be positive, got {slot_width}")
        self.sim = sim
        self.slot_width = float(slot_width)
        self._periodic: list[tuple[Callable, tuple]] = []
        self._armed: set[int] = set()
        self.slots_fired = 0
        self.timers_fired = 0

    # -- registration -------------------------------------------------------

    def every(self, fn: Callable, *args) -> None:
        """Fire ``fn(*args)`` on every slot boundary, starting with the next;
        ``fn`` returning ``False`` removes it."""
        self._periodic.append((fn, args))
        self._arm(self._next_boundary())

    def _next_boundary(self) -> int:
        """Index of the next slot boundary strictly after ``now``.

        A timer registered on a boundary first fires one slot later; the
        tolerance keeps float fuzz (``3 * 0.1`` vs ``0.3``) from reading
        a boundary as the instant just before or after it."""
        now = self.sim.now
        slot = math.ceil(now / self.slot_width)
        if abs(slot * self.slot_width - now) <= 1e-12 * max(1.0, abs(now)):
            slot += 1
        return slot

    # -- firing -------------------------------------------------------------

    def _arm(self, slot: int) -> None:
        if slot in self._armed:
            return
        self._armed.add(slot)
        delay = max(0.0, slot * self.slot_width - self.sim.now)
        self.sim.call_later(delay, self._fire, slot)

    def _fire(self, slot: int) -> None:
        self._armed.discard(slot)
        self.slots_fired += 1
        snapshot = self._periodic
        # entries registered by a firing callback land in a fresh list
        # and first fire on the NEXT boundary
        self._periodic = []
        self.timers_fired += len(snapshot)
        survivors = [entry for entry in snapshot
                     if entry[0](*entry[1]) is not False]
        survivors.extend(self._periodic)
        self._periodic = survivors
        if survivors:
            self._arm(slot + 1)

    def __len__(self) -> int:
        """Registered periodic entries."""
        return len(self._periodic)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<TimerWheel width={self.slot_width} periodic={len(self)} "
                f"fired={self.timers_fired}>")
