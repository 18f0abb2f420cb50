"""Trace exporters.

Two output formats:

* **JSONL** — one JSON object per trace event, the portable interchange
  format (``repro-cli trace --out run.jsonl``);
* **Chrome ``trace_event``** — a JSON document loadable in
  ``chrome://tracing`` / Perfetto: each trace category becomes a process
  row, each entity a named thread row, each event an instant marker.

All functions accept either a :class:`~repro.obs.trace.Tracer` or any
iterable of :class:`~repro.obs.trace.TraceEvent`.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.obs.trace import TraceEvent, Tracer

__all__ = [
    "trace_to_jsonl",
    "write_jsonl",
    "trace_to_chrome",
    "write_chrome_trace",
]


def _events(trace: Tracer | Iterable[TraceEvent]) -> list[TraceEvent]:
    return list(trace)


def trace_to_jsonl(trace: Tracer | Iterable[TraceEvent]) -> list[str]:
    """One compact JSON line per event, in emission order.

    Non-JSON-native attribute values (stubs, exceptions, numpy scalars)
    are rendered through ``repr`` rather than erroring: traces are
    diagnostics and must never take the run down.
    """
    return [
        json.dumps(e.as_dict(), sort_keys=True, separators=(",", ":"), default=repr)
        for e in _events(trace)
    ]


def write_jsonl(trace: Tracer | Iterable[TraceEvent], path) -> int:
    """Write the JSONL dump to ``path``; returns the number of events."""
    lines = trace_to_jsonl(trace)
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")
    return len(lines)


def trace_to_chrome(trace: Tracer | Iterable[TraceEvent]) -> dict:
    """The Chrome ``trace_event`` document (JSON-serializable dict).

    Mapping: category → process (pid), entity → thread (tid), event →
    instant event ("ph": "i") at ``time`` seconds rendered as microsecond
    timestamps.  Metadata records name the rows so the timeline reads as
    ``net / fabric``, ``p2p / D3#1`` and so on.
    """
    events = _events(trace)
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}
    out: list[dict] = []
    for cat in sorted({e.category for e in events}):
        pids[cat] = len(pids) + 1
        out.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pids[cat],
                "tid": 0,
                "args": {"name": cat},
            }
        )
    for key in sorted({(e.category, e.entity) for e in events}):
        tids[key] = len(tids) + 1
        out.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pids[key[0]],
                "tid": tids[key],
                "args": {"name": key[1]},
            }
        )
    for e in sorted(events, key=lambda e: (e.time, e.seq)):
        out.append(
            {
                "ph": "i",
                "s": "t",
                "name": e.kind,
                "cat": e.category,
                "ts": e.time * 1e6,
                "pid": pids[e.category],
                "tid": tids[(e.category, e.entity)],
                "args": dict(e.attrs),
            }
        )
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome_trace(trace: Tracer | Iterable[TraceEvent], path) -> int:
    """Write the Chrome-format document to ``path``; returns event count."""
    doc = trace_to_chrome(trace)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, default=repr)
    return sum(1 for rec in doc["traceEvents"] if rec["ph"] == "i")
