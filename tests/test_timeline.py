"""Tests for the timeline/report utilities."""

from repro.experiments.timeline import (
    activity_chart,
    event_timeline,
    run_summary,
)
from repro.checkpoint import FixedPolicy
from repro.obs import Tracer
from repro.p2p import P2PConfig, build_cluster, launch_application

from tests.helpers import make_geometric_app, run_until_done

FAST = P2PConfig(
    heartbeat_period=0.5, heartbeat_timeout=2.0, monitor_period=0.5,
    call_timeout=2.0, bootstrap_retry_delay=0.5,
    min_iteration_time=0.01,
)
CKPT = FixedPolicy(count=2, frequency=5)


def test_empty_log_handled():
    tracer = Tracer()
    assert "no protocol events" in event_timeline(tracer)
    assert "nothing to chart" in activity_chart(tracer)
    summary = run_summary(tracer)
    assert summary["assignments"] == 0 and not summary["converged"]


def test_timeline_of_a_real_run_with_failure():
    cluster = build_cluster(n_daemons=6, n_superpeers=2, seed=37, config=FAST, checkpoint=CKPT,
                            tracer=Tracer())
    app = make_geometric_app(num_tasks=3, rate=0.999, threshold=1e-9, flops=3e6)
    spawner = launch_application(cluster, app)
    sim = cluster.sim
    sim.run(until=2.0)
    victim_name = spawner.register.slot(0).daemon_id.rsplit("#", 1)[0]
    victim = next(h for h in cluster.testbed.daemon_hosts
                  if h.name == victim_name)
    victim.fail(cause="test")
    assert run_until_done(cluster, spawner, horizon=300.0)

    narrative = event_timeline(cluster.tracer)
    assert "p2p/slot_filled" in narrative
    assert "p2p/hb_miss" in narrative
    assert "p2p/recovery" in narrative
    assert "p2p/converged" in narrative
    # chronological
    times = [float(line.split("]")[0].strip("[ ")) for line in narrative.splitlines()]
    assert times == sorted(times)

    chart = activity_chart(cluster.tracer, width=60)
    assert "A" in chart and "!" in chart and "R" in chart
    assert "legend" not in chart  # legend text itself, marks included
    assert victim_name in chart

    summary = run_summary(cluster.tracer)
    assert summary["converged"]
    assert summary["failures_detected"] == 1
    assert summary["recoveries"] == 1
    assert summary["assignments"] == 4  # 3 initial + 1 replacement


def test_chart_respects_width_and_until():
    tracer = Tracer()
    tracer.emit(0.5, "p2p", "spawner:x", "slot_filled", daemon="d1")
    tracer.emit(9.5, "faults", "churn", "daemon_crash", host="d1")
    chart = activity_chart(tracer, width=20)
    row = next(l for l in chart.splitlines() if l.startswith("d1"))
    cells = row.split("|")[1]
    assert len(cells) == 20
    assert cells[1] == "A"   # t=0.5 of 9.5s -> bin 1
    assert cells[19] == "x"  # t=9.5: the chart ends at the last event
    assert "9.50s" in chart
