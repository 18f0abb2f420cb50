"""Human-readable run reports.

:func:`build_run_report` condenses one application run — the
:class:`~repro.obs.instruments.RunTelemetry` instrument, the network's delivery
statistics and (when tracing was on) the trace bus — into a
:class:`RunReport` that renders as plain text or markdown.  This is what
``repro-cli report`` prints.

The report copies its numbers from ``RunTelemetry`` and from the Spawners'
and Super-Peers' own counters, the ones the experiment harness reads, so
the two always agree; the trace bus only adds its per-kind event counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.trace import Tracer

__all__ = ["RunReport", "build_run_report"]


@dataclass
class RunReport:
    """Condensed facts about one application run."""

    app_id: str = ""
    converged: bool = False
    launched_at: float = 0.0
    converged_at: float | None = None
    execution_time: float | None = None
    total_iterations: int = 0
    useless_fraction: float = 0.0
    data_messages_sent: int = 0
    checkpoints_sent: int = 0
    convergence_messages: int = 0
    #: ``(time, task_id, resumed_iteration, from_scratch)`` per recovery
    recoveries: list = field(default_factory=list)
    restarts_from_zero: int = 0
    heartbeat_misses: int = 0
    evictions: int = 0
    replacements: int = 0
    net_stats: dict = field(default_factory=dict)
    #: executed fault-plane actions as ``FaultRecord`` dicts (empty when the
    #: run had no fault plan)
    faults: list = field(default_factory=list)
    #: exact per-``(category, kind)`` trace counts (empty without a tracer)
    event_counts: dict = field(default_factory=dict)

    # -- transport ------------------------------------------------------------

    def to_dict(self) -> dict:
        """Lossless JSON-ready dump (inverse of :meth:`from_dict`).

        Tuple-keyed ``event_counts`` become ``"category/kind"`` strings;
        :class:`~repro.obs.instruments.RecoveryRecord` entries become field
        dicts.  Used by the run cache and the sweep engine's cross-process
        transport.
        """
        from dataclasses import asdict as _asdict

        out = _asdict(self)
        out["recoveries"] = [
            rec if isinstance(rec, dict) else _asdict(rec)
            for rec in self.recoveries
        ]
        out["event_counts"] = {
            f"{category}/{kind}": count
            for (category, kind), count in self.event_counts.items()
        }
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        from repro.obs.instruments import RecoveryRecord

        data = dict(data)
        data["recoveries"] = [
            RecoveryRecord(**rec) for rec in data.get("recoveries", ())
        ]
        data["event_counts"] = {
            tuple(name.split("/", 1)): count
            for name, count in data.get("event_counts", {}).items()
        }
        return cls(**data)

    # -- rendering ------------------------------------------------------------

    def _rows(self) -> list[tuple[str, str]]:
        time_s = (
            f"{self.execution_time:.3f} s" if self.execution_time is not None else "-"
        )
        drops = sum(
            v for k, v in self.net_stats.items() if k.startswith("dropped_")
        )
        return [
            ("converged", str(self.converged)),
            ("execution time", time_s),
            ("iterations", str(self.total_iterations)),
            ("useless fraction", f"{self.useless_fraction:.3f}"),
            ("data messages", str(self.data_messages_sent)),
            ("checkpoints sent", str(self.checkpoints_sent)),
            ("convergence msgs", str(self.convergence_messages)),
            ("heartbeat misses", str(self.heartbeat_misses)),
            ("evictions", str(self.evictions)),
            ("replacements", str(self.replacements)),
            ("recoveries", str(len(self.recoveries))),
            ("restarts from zero", str(self.restarts_from_zero)),
            ("messages sent", str(self.net_stats.get("sent", 0))),
            ("messages delivered", str(self.net_stats.get("delivered", 0))),
            ("messages dropped", str(drops)),
        ]

    def _fault_lines(self) -> list[str]:
        lines = []
        for rec in self.faults:
            detail = rec.get("detail", {})
            extras = "  ".join(f"{k}={v}" for k, v in detail.items())
            lines.append(f"t={rec['time']:.3f}s  {rec['kind']}  {extras}".rstrip())
        return lines

    def _recovery_lines(self) -> list[str]:
        lines = []
        for rec in self.recoveries:
            time, task_id, iteration, from_scratch = (
                rec.time,
                rec.task_id,
                rec.resumed_iteration,
                rec.from_scratch,
            )
            source = "scratch" if from_scratch else "backup"
            lines.append(
                f"t={time:.3f}s  task {task_id}  resumed at iteration "
                f"{iteration}  from {source}"
            )
        return lines

    def to_text(self) -> str:
        """Plain-text rendering (aligned key/value pairs)."""
        title = f"run report{f' — {self.app_id}' if self.app_id else ''}"
        lines = [title, "=" * len(title)]
        for key, value in self._rows():
            lines.append(f"{key:>20}: {value}")
        if self.faults:
            lines.append("")
            lines.append("fault history:")
            lines.extend(f"  {line}" for line in self._fault_lines())
        if self.recoveries:
            lines.append("")
            lines.append("recovery history:")
            lines.extend(f"  {line}" for line in self._recovery_lines())
        if self.event_counts:
            lines.append("")
            lines.append("trace events:")
            for (cat, kind), n in sorted(self.event_counts.items()):
                lines.append(f"  {cat + '/' + kind:<28} {n}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """Markdown rendering (tables)."""
        title = f"# Run report{f' — `{self.app_id}`' if self.app_id else ''}"
        lines = [title, "", "| metric | value |", "|---|---|"]
        lines.extend(f"| {key} | {value} |" for key, value in self._rows())
        if self.faults:
            lines += ["", "## Fault history", ""]
            lines.extend(f"* {line}" for line in self._fault_lines())
        if self.recoveries:
            lines += ["", "## Recovery history", ""]
            lines.extend(f"* {line}" for line in self._recovery_lines())
        if self.event_counts:
            lines += ["", "## Trace events", "", "| event | count |", "|---|---|"]
            lines.extend(
                f"| `{cat}/{kind}` | {n} |"
                for (cat, kind), n in sorted(self.event_counts.items())
            )
        return "\n".join(lines)


def build_run_report(
    telemetry,
    network=None,
    tracer: Tracer | None = None,
    spawners=(),
    superpeers=(),
    app_id: str = "",
    fault_injector=None,
) -> RunReport:
    """Assemble a :class:`RunReport` from whatever sources are at hand.

    ``telemetry`` is required (any object with the
    :class:`~repro.obs.instruments.RunTelemetry` read surface); the rest are
    optional and simply leave their sections empty/zero when absent.
    Heartbeat misses and replacements are summed over ``spawners`` (every
    Spawner of the app: the primary and a promoted standby's), evictions
    over ``superpeers``.  ``fault_injector`` (a :class:`~repro.faults.FaultInjector`) fills the
    fault-history section with the executed plan.
    """
    report = RunReport(
        app_id=app_id or (spawners[0].app.app_id if spawners else ""),
        converged=telemetry.converged_at is not None,
        launched_at=telemetry.launched_at,
        converged_at=telemetry.converged_at,
        execution_time=telemetry.execution_time,
        total_iterations=telemetry.total_iterations,
        useless_fraction=telemetry.useless_fraction,
        data_messages_sent=telemetry.data_messages_sent,
        checkpoints_sent=telemetry.checkpoints_sent,
        convergence_messages=telemetry.convergence_messages,
        recoveries=list(telemetry.recoveries),
        restarts_from_zero=telemetry.restarts_from_zero,
    )
    if network is not None:
        report.net_stats = network.stats()
    if fault_injector is not None:
        report.faults = [rec.to_dict() for rec in fault_injector.executed]
    report.heartbeat_misses = sum(s.failures_detected for s in spawners)
    report.replacements = sum(s.replacements for s in spawners)
    report.evictions = sum(sp.evictions for sp in superpeers)
    if tracer is not None and tracer.enabled:
        report.event_counts = dict(tracer.counts)
    return report
