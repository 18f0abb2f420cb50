"""Run-timeline reporting: turn a run's trace into readable artefacts.

Two views of one execution:

* :func:`event_timeline` — the protocol narrative: assignments,
  disconnections, detections, replacements, recoveries, convergence;
* :func:`activity_chart` — an ASCII strip chart of per-entity activity
  binned over time (assignments ``A``, recoveries ``R``, disconnects
  ``x``, reconnects ``o``), which makes the "alive peers keep computing
  while one is replaced" story visible at a glance.

Both read the :class:`~repro.obs.Tracer` a traced run already filled
(``build_cluster(tracer=Tracer())`` / ``RunSpec(...).run(tracer=...)``) —
no extra instrumentation required.
"""

from __future__ import annotations

from repro.obs.trace import Tracer

__all__ = ["event_timeline", "activity_chart", "run_summary"]

#: the protocol events worth narrating, as trace ``(category, kind)``
NARRATIVE_KINDS = (
    ("p2p", "slot_filled"),
    ("faults", "daemon_crash"),
    ("faults", "recover"),
    ("p2p", "hb_miss"),
    ("p2p", "spawner_assign_failed"),
    ("p2p", "recovery"),
    ("p2p", "spawner_dwell_aborted"),
    ("p2p", "converged"),
)

_MARKS = {
    ("p2p", "slot_filled"): "A",
    ("p2p", "recovery"): "R",
    ("faults", "daemon_crash"): "x",
    ("faults", "recover"): "o",
    ("p2p", "hb_miss"): "!",
    ("p2p", "converged"): "C",
}


def event_timeline(tracer: Tracer) -> str:
    """Chronological text narrative of a run's protocol events."""
    events = [e for e in tracer.events
              if (e.category, e.kind) in NARRATIVE_KINDS]
    if not events:
        return "(no protocol events recorded)"
    return "\n".join(str(e) for e in sorted(events, key=lambda e: e.time))


def activity_chart(tracer: Tracer, width: int = 72) -> str:
    """ASCII strip chart: one row per entity, one column per time bin, up
    to the last charted event."""
    marked = [(e, _MARKS[kind]) for e in tracer.events
              if (kind := (e.category, e.kind)) in _MARKS]
    if not marked:
        return "(nothing to chart)"
    horizon = max(max(e.time for e, _ in marked), 1e-9)
    entities: dict[str, list[str]] = {}
    for event, mark in marked:
        key = event.attrs.get("host") or event.attrs.get("daemon") or event.entity
        row = entities.setdefault(str(key), ["."] * width)
        column = min(int(event.time / horizon * width), width - 1)
        row[column] = mark
    label_width = max(len(k) for k in entities)
    lines = [
        f"{name.ljust(label_width)} |{''.join(row)}|"
        for name, row in sorted(entities.items())
    ]
    scale = f"{'':{label_width}} 0{'':{width - 8}}{horizon:.2f}s"
    legend = "A=assigned R=recovered x=disconnect o=reconnect !=detected C=converged"
    return "\n".join(lines + [scale, legend])


def run_summary(tracer: Tracer) -> dict:
    """Headline counters mined from the trace (exact past the buffer bound)."""
    return {
        "assignments": tracer.count("p2p", "slot_filled"),
        "disconnects": tracer.count("faults", "daemon_crash"),
        "reconnects": tracer.count("faults", "recover"),
        "failures_detected": tracer.count("p2p", "hb_miss"),
        "recoveries": tracer.count("p2p", "recovery"),
        "dwell_aborts": tracer.count("p2p", "spawner_dwell_aborted"),
        "converged": tracer.count("p2p", "converged") > 0,
    }
