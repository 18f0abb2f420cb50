"""``repro.obs`` — the unified observability layer.

Three cooperating pieces (see ``docs/observability.md``):

* the **trace bus** (:mod:`repro.obs.trace`): structured
  :class:`TraceEvent` records emitted by every instrumented layer into the
  :class:`Tracer` attached to the simulation kernel; disabled by default
  via the zero-overhead :data:`NULL_TRACER`;
* the **run record** (:mod:`repro.obs.instruments`):
  :class:`RunTelemetry`, one plain int (or per-task ``Counter``) per
  counted fact of an application run, written with ``+=`` by the entity
  that observes it;
* the **exporters** (:mod:`repro.obs.exporters`, :mod:`repro.obs.report`):
  JSONL and Chrome ``trace_event`` dumps plus the plain-text/markdown
  :class:`RunReport` behind ``repro-cli trace`` / ``repro-cli report``.

Enable tracing on any run by handing the cluster a recording tracer::

    from repro.obs import Tracer, write_jsonl
    tracer = Tracer()
    cluster = build_cluster(n_daemons=10, tracer=tracer)
    ...
    write_jsonl(tracer, "run.jsonl")
"""

from repro.obs.trace import NULL_TRACER, NullTracer, TraceEvent, Tracer
from repro.obs.instruments import RecoveryRecord, RunTelemetry
from repro.obs.exporters import (
    trace_to_chrome,
    trace_to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.report import RunReport, build_run_report
from repro.obs.profile import ProfileReport, layer_of, profile_callable

__all__ = [
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "RunTelemetry",
    "RecoveryRecord",
    "trace_to_jsonl",
    "write_jsonl",
    "trace_to_chrome",
    "write_chrome_trace",
    "RunReport",
    "build_run_report",
    "ProfileReport",
    "profile_callable",
    "layer_of",
]
