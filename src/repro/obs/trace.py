"""The trace bus: structured, allocation-light event records.

Every instrumented layer (``des``, ``net``, ``rmi``, ``p2p``) emits
:class:`TraceEvent` records into the :class:`Tracer` attached to the
simulation kernel (``sim.tracer``).  Tracing is opt-in: the kernel's
default tracer is :data:`NULL_TRACER`, whose :meth:`~NullTracer.emit` is a
no-op and whose :attr:`~Tracer.enabled` flag lets hot paths skip building
the attribute dict entirely::

    tr = self.sim.tracer
    if tr.enabled:
        tr.emit(self.sim.now, "net", "fabric", "drop", reason="partition")

Determinism: events are appended in kernel callback order, which the DES
heap makes deterministic (``(time, priority, sequence)``), so two runs with
the same seed produce the same events in the same order.  (Byte-identical
dumps additionally require a fresh interpreter per run: message and call
identifiers come from process-global counters.)  Each event also carries a
monotonically increasing ``seq`` so exporters can stable-sort simultaneous
events.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ConfigurationError

__all__ = ["TraceEvent", "Tracer", "NullTracer", "NULL_TRACER"]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One structured trace record.

    ``category`` names the emitting layer (``"des"``, ``"net"``, ``"rmi"``,
    ``"p2p"``); ``entity`` the emitting component (a daemon id, ``"fabric"``,
    an RMI runtime name); ``kind`` the event type within the category (see
    ``docs/observability.md`` for the full taxonomy); ``attrs`` the
    event-specific payload.
    """

    time: float
    category: str
    entity: str
    kind: str
    attrs: dict = field(default_factory=dict)
    seq: int = 0

    def as_dict(self) -> dict:
        """Flat dict form used by the exporters."""
        return {
            "time": self.time,
            "category": self.category,
            "entity": self.entity,
            "kind": self.kind,
            "seq": self.seq,
            **({"attrs": self.attrs} if self.attrs else {}),
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kv = " ".join(f"{k}={v}" for k, v in self.attrs.items())
        label = f"{self.category}/{self.kind}"
        return f"[{self.time:12.6f}] {label:<24} {self.entity:<16} {kv}"


class Tracer:
    """Recording trace bus over a ring of the newest events.

    ``max_events`` bounds memory for very long runs: the buffer keeps the
    newest ``max_events`` events and ``dropped`` counts the evicted ones,
    while the per-``(category, kind)`` counters stay exact over the whole
    run.
    """

    enabled = True

    def __init__(self, max_events: int = 2_000_000):
        if max_events < 1:
            raise ConfigurationError(
                f"trace capacity must be >= 1, got {max_events}")
        self.events: deque[TraceEvent] = deque(maxlen=max_events)
        self.max_events = max_events
        self.counts: dict[tuple[str, str], int] = {}
        self.dropped = 0
        self._seq = 0

    def emit(
        self, time: float, category: str, entity: str, kind: str, **attrs
    ) -> TraceEvent:
        """Record one event; returns it (handy in tests)."""
        self._seq += 1
        ev = TraceEvent(float(time), category, entity, kind, attrs, self._seq)
        if len(self.events) == self.max_events:
            self.dropped += 1  # the deque evicts the oldest on append
        self.events.append(ev)
        key = (category, kind)
        self.counts[key] = self.counts.get(key, 0) + 1
        return ev

    def count(self, category: str | None = None, kind: str | None = None) -> int:
        """Exact number of events matching ``category`` and/or ``kind``."""
        return sum(
            n
            for (cat, knd), n in self.counts.items()
            if (category is None or cat == category)
            and (kind is None or knd == kind)
        )

    def close(self) -> None:
        """Release sink resources; a no-op for in-memory tracers.

        Streaming sinks (:mod:`repro.obs.sinks`) override this to flush
        their final batch — callers can close any tracer unconditionally.
        """

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Tracer events={len(self.events)} dropped={self.dropped}>"


class NullTracer(Tracer):
    """The disabled trace bus: every operation is a no-op.

    Hot paths check :attr:`enabled` before building keyword arguments, so a
    disabled run never allocates an attrs dict; even an unguarded
    ``emit(...)`` call records nothing.
    """

    enabled = False

    def __init__(self):
        super().__init__(max_events=1)

    def emit(self, time, category, entity, kind, **attrs) -> None:  # type: ignore[override]
        return None


#: process-wide disabled tracer; the kernel's default
NULL_TRACER = NullTracer()
