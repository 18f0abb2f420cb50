"""The streaming trace sink for swarm-scale runs.

The default :class:`~repro.obs.trace.Tracer` keeps a ring of the newest
``max_events`` events in memory — fine for a 16-peer run, lossy for a
10 000-Daemon swarm emitting 10^8 events.  :class:`JsonlTracer` keeps
them all: events stream to a JSONL file in buffered batches, rotating to
numbered segments at ``max_bytes``; only a small in-memory *tail* ring
(for ``RunReport`` and quick inspection) and the exact per-``(category,
kind)`` counters stay resident.  Memory is O(buffer + tail) no matter
how many events the run emits; :func:`read_jsonl_trace` round-trips the
segments back into :class:`TraceEvent` records.

Both sinks keep :attr:`Tracer.counts` exact over the whole run, so
:func:`~repro.obs.report.build_run_report` works unchanged on either.
Select one per run through :class:`~repro.exec.spec.RunSpec`
(``trace_sink="memory" | "jsonl"``) or build one directly via
:func:`make_tracer`.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ConfigurationError
from repro.obs.trace import TraceEvent, Tracer

__all__ = ["JsonlTracer", "make_tracer", "read_jsonl_trace"]

#: default JSONL write-buffer size (events per flush)
DEFAULT_FLUSH_EVERY = 10_000
#: default JSONL segment rotation threshold
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


class JsonlTracer(Tracer):
    """Streaming sink: events spill to JSONL segments on disk.

    Writes go to ``path`` in batches of ``flush_every`` events; when the
    live file would exceed ``max_bytes`` it rotates to ``path.1``,
    ``path.2``, ... (chronological: segment 1 is oldest, the live file is
    newest).  An in-memory ring of the last ``tail_events`` events keeps
    ``select``/``__iter__`` useful for reports without re-reading disk.

    Call :meth:`close` (or use the driver, which does) to flush the final
    batch; the sink is also safe to flush mid-run.
    """

    def __init__(
        self,
        path,
        flush_every: int = DEFAULT_FLUSH_EVERY,
        max_bytes: int = DEFAULT_MAX_BYTES,
        tail_events: int = 10_000,
    ):
        if flush_every < 1:
            raise ConfigurationError("flush_every must be >= 1")
        if max_bytes < 1:
            raise ConfigurationError("max_bytes must be >= 1")
        super().__init__(max_events=tail_events)
        self.path = Path(path)
        self.flush_every = flush_every
        self.max_bytes = max_bytes
        self.written = 0  # events flushed to disk
        self.segments = 0  # rotations performed
        self._buffer: list[str] = []
        self._buffer_bytes = 0
        self._file_bytes = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text("")  # truncate: one sink owns one trace

    def emit(self, time, category, entity, kind, **attrs) -> TraceEvent:
        ev = super().emit(time, category, entity, kind, **attrs)
        line = json.dumps(ev.as_dict(), sort_keys=True,
                          separators=(",", ":"), default=repr)
        self._buffer.append(line)
        self._buffer_bytes += len(line) + 1
        if len(self._buffer) >= self.flush_every:
            self.flush()
        return ev

    def flush(self) -> None:
        """Write the buffered batch out, rotating the segment if needed."""
        if not self._buffer:
            return
        if self._file_bytes > 0 and \
                self._file_bytes + self._buffer_bytes > self.max_bytes:
            self._rotate()
        with open(self.path, "a") as fh:
            fh.write("\n".join(self._buffer) + "\n")
        self.written += len(self._buffer)
        self._file_bytes += self._buffer_bytes
        self._buffer = []
        self._buffer_bytes = 0

    def _rotate(self) -> None:
        self.segments += 1
        self.path.rename(self.segment_path(self.segments))
        self.path.write_text("")
        self._file_bytes = 0

    def segment_path(self, index: int) -> Path:
        return self.path.with_name(f"{self.path.name}.{index}")

    def segment_paths(self) -> list[Path]:
        """All on-disk pieces, oldest first (live file last)."""
        return [self.segment_path(i) for i in range(1, self.segments + 1)] \
            + [self.path]

    def close(self) -> None:
        self.flush()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<JsonlTracer {self.path} written={self.written} "
                f"segments={self.segments}>")


def read_jsonl_trace(path) -> list[TraceEvent]:
    """Read a :class:`JsonlTracer` dump (live file + rotated segments)
    back into :class:`TraceEvent` records, in emission order."""
    path = Path(path)
    pieces = sorted(
        (p for p in path.parent.glob(f"{path.name}.*")
         if p.suffix.lstrip(".").isdigit()),
        key=lambda p: int(p.suffix.lstrip(".")),
    )
    if path.exists():
        pieces.append(path)
    events: list[TraceEvent] = []
    for piece in pieces:
        with open(piece) as fh:
            for line in fh:
                if not line.strip():
                    continue
                rec = json.loads(line)
                events.append(TraceEvent(
                    time=rec["time"], category=rec["category"],
                    entity=rec["entity"], kind=rec["kind"],
                    attrs=rec.get("attrs", {}), seq=rec.get("seq", 0),
                ))
    return events


def make_tracer(sink: str = "memory", capacity: int | None = None,
                path=None, **kwargs) -> Tracer:
    """Build the trace sink selected by a :class:`~repro.exec.spec.RunSpec`.

    ``sink="memory"`` is the in-memory ring :class:`Tracer`; ``"jsonl"`` a
    :class:`JsonlTracer` spilling to ``path``.  ``capacity`` maps to the
    sink's in-memory bound (ring size / tail size) and must be >= 1;
    extra ``kwargs`` pass through to the sink constructor.
    """
    if sink == "memory":
        return Tracer() if capacity is None else Tracer(max_events=capacity)
    if sink == "jsonl":
        if path is None:
            raise ConfigurationError('trace sink "jsonl" needs a trace_path')
        if capacity is not None:
            kwargs.setdefault("tail_events", capacity)
        return JsonlTracer(path, **kwargs)
    raise ConfigurationError(
        f'unknown trace sink {sink!r} (choose "memory" or "jsonl")'
    )
