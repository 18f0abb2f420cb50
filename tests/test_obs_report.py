"""Run-report tests, including the end-to-end churn acceptance run.

The integration test mirrors ``examples/churn_resilience.py``: a traced
churn run whose trace must contain heartbeat-miss, eviction, checkpoint
and recovery events, and whose rendered report must agree with the
``RunTelemetry`` counters.
"""

import json

import pytest

from repro.obs import RunReport, Tracer, build_run_report, trace_to_jsonl
from repro.obs import RunTelemetry


def test_report_from_bare_telemetry():
    t = RunTelemetry()
    t.iterations[0] += 1
    t.launched_at = 0.5
    t.converged_at = 2.5
    report = build_run_report(telemetry=t)
    assert report.converged
    assert report.execution_time == 2.0
    assert report.total_iterations == 1
    assert report.event_counts == {}
    assert "converged: True" in report.to_text()


def test_report_renders_without_convergence():
    report = build_run_report(telemetry=RunTelemetry())
    assert not report.converged
    assert "execution time" in report.to_text()
    assert "| converged | False |" in report.to_markdown()


def test_report_reads_runtime_counts_not_the_trace():
    from types import SimpleNamespace

    app = SimpleNamespace(app_id="x")
    primary = SimpleNamespace(app=app, failures_detected=2, replacements=1)
    promoted = SimpleNamespace(app=app, failures_detected=1, replacements=1)
    superpeers = [SimpleNamespace(evictions=1), SimpleNamespace(evictions=0)]
    tr = Tracer()
    tr.emit(1.2, "p2p", "SP0", "evict", daemon="D2#1")
    tr.emit(1.3, "p2p", "SP1", "evict", daemon="D4#1")
    report = build_run_report(telemetry=RunTelemetry(), tracer=tr,
                              spawners=[primary, promoted],
                              superpeers=superpeers)
    assert report.app_id == "x"
    assert (report.heartbeat_misses, report.replacements) == (3, 2)
    assert report.evictions == 1  # the trace's two events are not read
    assert report.event_counts[("p2p", "evict")] == 2


def test_markdown_contains_tables():
    report = RunReport(app_id="demo", converged=True, total_iterations=10,
                       event_counts={("net", "send"): 4})
    md = report.to_markdown()
    assert md.startswith("# Run report — `demo`")
    assert "| metric | value |" in md
    assert "| `net/send` | 4 |" in md


@pytest.fixture(scope="module")
def churn_run():
    """One traced churn run felling computing peers AND spare daemons.

    Seeded churn picks its victims among all the Daemons, so whether it
    fells a computing one or a spare depends on the seed.  Two fault plans
    force both mid-run, each a crash with a downtime: one of a computing
    Daemon (a heartbeat miss, then a recovery) and one of a registered
    spare (an eviction), whatever the seed draws."""
    from repro.apps import make_poisson_app
    from repro.churn import PaperChurn
    from repro.experiments.config import (
        EXPERIMENT_CONFIG,
        EXPERIMENT_LINK_SCALE,
        optimal_overlap,
    )
    from repro.faults import DaemonCrash, FaultInjector, FaultPlan
    from repro.p2p import build_cluster, launch_application
    from repro.util.rng import RngTree
    from tests.helpers import churn_injector

    tracer = Tracer()
    cluster = build_cluster(
        n_daemons=12, n_superpeers=3, seed=4,
        config=EXPERIMENT_CONFIG, link_scale=EXPERIMENT_LINK_SCALE,
        tracer=tracer,
    )
    app = make_poisson_app("churny", n=48, num_tasks=6,
                           overlap=optimal_overlap(48, 6))
    spawner = launch_application(cluster, app)
    churn_injector(
        cluster.sim, cluster.testbed.daemon_hosts,
        PaperChurn(n_disconnections=4, reconnect_delay=1.0),
        RngTree(4).child("churn"), horizon=2.0,
    )

    def computing(host):
        daemon = cluster.daemons.get(host.name)
        return daemon is not None and daemon.runner is not None

    def spare(host):
        daemon = cluster.daemons.get(host.name)
        return (daemon is not None and daemon.registered
                and daemon.runner is None)

    crashes = [
        FaultInjector(
            cluster.sim, FaultPlan.of(DaemonCrash(time=0.3, downtime=1.0)),
            rng=RngTree(4).child("faults", i), cluster=cluster,
            victim_filter=victims)
        for i, victims in enumerate((computing, spare))
    ]
    sim = cluster.sim
    sim.run(until=sim.any_of([spawner.done, sim.timeout(900.0)]))
    assert spawner.done.triggered
    # each forced crash had the consequence it was there for
    worker, idle = (injector.executed[0].detail["host"] + "#1"
                    for injector in crashes)
    assert worker in {e.attrs["daemon"] for e in tracer
                      if e.category == "p2p" and e.kind == "hb_miss"}
    assert idle in {e.attrs["daemon"] for e in tracer
                    if e.category == "p2p" and e.kind == "evict"}
    return cluster, spawner, tracer


def test_churn_trace_contains_acceptance_events(churn_run):
    _, _, tracer = churn_run
    for kind in ("hb_miss", "evict", "checkpoint_store", "recovery"):
        assert tracer.count("p2p", kind) > 0, f"no p2p/{kind} events"


def test_churn_trace_jsonl_dump_has_acceptance_events(churn_run):
    _, _, tracer = churn_run
    kinds = {json.loads(line)["kind"] for line in trace_to_jsonl(tracer)}
    assert {"hb_miss", "evict", "checkpoint_store", "recovery"} <= kinds


def test_churn_report_agrees_with_telemetry(churn_run):
    cluster, spawner, tracer = churn_run
    telemetry = cluster.telemetry
    report = build_run_report(
        telemetry=telemetry, network=cluster.network, tracer=tracer,
        spawners=cluster.spawners, superpeers=cluster.superpeers,
    )
    assert report.converged
    assert report.total_iterations == telemetry.total_iterations
    assert report.useless_fraction == telemetry.useless_fraction
    assert report.checkpoints_sent == telemetry.checkpoints_sent
    assert report.data_messages_sent == telemetry.data_messages_sent
    assert len(report.recoveries) == len(telemetry.recoveries)
    assert report.restarts_from_zero == telemetry.restarts_from_zero
    assert report.execution_time == spawner.execution_time
    # the runtime's own counters agree with the exact trace counts
    assert report.heartbeat_misses == tracer.count("p2p", "hb_miss")
    assert report.evictions == tracer.count("p2p", "evict")
    assert report.heartbeat_misses == spawner.failures_detected
    assert report.evictions == sum(sp.evictions for sp in cluster.superpeers)
    assert report.replacements == spawner.replacements
    # trace-vs-telemetry cross-checks
    assert tracer.count("p2p", "checkpoint_store") == telemetry.checkpoints_sent
    assert tracer.count("p2p", "recovery") == len(telemetry.recoveries)
    text = report.to_text()
    assert f"recoveries: {len(telemetry.recoveries)}" in text
    assert "p2p/evict" in text


def test_driver_attaches_run_report():
    from repro.exec import RunSpec

    spec = RunSpec(n=16, peers=2, seed=0)
    result = spec.run()
    assert result.run_report is None  # untraced runs stay lightweight

    tracer = Tracer()
    result = spec.run(tracer=tracer)
    report = result.run_report
    assert report is not None
    assert report.converged == result.converged
    assert report.total_iterations == result.total_iterations
    assert len(report.recoveries) == result.recoveries
    assert report.checkpoints_sent == result.checkpoints_sent
    assert report.event_counts == dict(tracer.counts)
