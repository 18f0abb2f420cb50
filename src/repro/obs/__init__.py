"""``repro.obs`` — the unified observability layer.

Three cooperating pieces (see ``docs/observability.md``):

* the **trace bus** (:mod:`repro.obs.trace`): structured
  :class:`TraceEvent` records emitted by every instrumented layer into the
  :class:`Tracer` attached to the simulation kernel; disabled by default
  via the zero-overhead :data:`NULL_TRACER`;
* the **metrics registry** (:mod:`repro.obs.metrics`): labelled
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` aggregates —
  the backing store of the :class:`~repro.obs.instruments.RunTelemetry`
  instrument;
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
from repro.obs.sinks import JsonlTracer, make_tracer, read_jsonl_trace
from repro.obs.instruments import RecoveryRecord, RunTelemetry
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.exporters import (
    trace_to_chrome,
    trace_to_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_metrics_json,
)
from repro.obs.report import RunReport, build_run_report
from repro.obs.profile import ProfileReport, layer_of, profile_callable

__all__ = [
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "JsonlTracer",
    "make_tracer",
    "read_jsonl_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunTelemetry",
    "RecoveryRecord",
    "trace_to_jsonl",
    "write_jsonl",
    "trace_to_chrome",
    "write_chrome_trace",
    "write_metrics_json",
    "RunReport",
    "build_run_report",
    "ProfileReport",
    "profile_callable",
    "layer_of",
]
