#!/usr/bin/env python
"""Churn resilience: the paper's §7 experiment, narrated and traced.

Runs the Poisson application on 6 peers while the churn injector randomly
powers machines off mid-computation (reconnecting them a second later, the
scaled stand-in for the paper's ≈20 s), then prints the full failure
timeline: disconnections, Spawner detections, Super-Peer evictions,
replacements, and Backup recoveries — ending with proof that the answer is
still right.

The whole run is recorded on a :class:`repro.obs.Tracer`: every layer
(kernel, network, RMI, protocol) emits structured events, the script dumps
them as JSON Lines next to this file, and closes with the
:class:`repro.obs.RunReport` summary.  Churn here hits spare Daemons too
(not only computing peers), so the trace shows the Super-Peer eviction
path alongside Backup recovery.

Run:  python examples/churn_resilience.py
"""

import numpy as np

from repro.apps import make_poisson_app
from repro.churn import PaperChurn, churn_plan
from repro.experiments.config import (
    EXPERIMENT_CONFIG,
    EXPERIMENT_LINK_SCALE,
    optimal_overlap,
)
from repro.faults import FaultInjector
from repro.numerics import Poisson2D
from repro.obs import Tracer, build_run_report, write_jsonl
from repro.p2p import build_cluster, launch_application
from repro.util.rng import RngTree


def main() -> None:
    # seed 4 deterministically fells both computing peers (-> Backup
    # recovery) and spare Daemons (-> Super-Peer eviction)
    n, peers, disconnections, seed = 48, 6, 4, 4

    tracer = Tracer()
    cluster = build_cluster(
        n_daemons=12, n_superpeers=3, seed=seed,
        config=EXPERIMENT_CONFIG, link_scale=EXPERIMENT_LINK_SCALE,
        tracer=tracer,
    )
    app = make_poisson_app(
        "churny", n=n, num_tasks=peers, overlap=optimal_overlap(n, peers),
    )
    spawner = launch_application(cluster, app)

    rng = RngTree(seed).child("churn")
    model = PaperChurn(n_disconnections=disconnections, reconnect_delay=1.0)
    injector = FaultInjector(
        cluster.sim,
        churn_plan(model, rng, horizon=2.0),
        rng=rng,
        hosts=cluster.testbed.daemon_hosts,
        entity="churn",
    )

    sim = cluster.sim
    sim.run(until=sim.any_of([spawner.done, sim.timeout(900.0)]))
    assert spawner.done.triggered, "did not converge"

    print(f"converged at t={spawner.execution_time:.3f}s with "
          f"{len(injector.executed)} disconnections\n")
    print("failure timeline:")
    interesting = {
        ("faults", "daemon_crash"), ("faults", "recover"), ("p2p", "hb_miss"),
        ("p2p", "evict"), ("p2p", "slot_filled"), ("p2p", "recovery"),
    }
    for event in tracer:
        if (event.category, event.kind) in interesting:
            print(f"  {event}")

    print("\nrecovery summary:")
    for rec in cluster.telemetry.recoveries:
        source = "scratch (all backups lost)" if rec.from_scratch else "Backup"
        print(f"  t={rec.time:.3f}s task {rec.task_id} resumed at "
              f"iteration {rec.resumed_iteration} from {source}")

    collector = sim.process(spawner.collect_solution())
    sim.run(until=collector)
    x = np.zeros(n * n)
    for fragment in collector.value.values():
        offset, values = fragment
        x[offset : offset + len(values)] = values
    print(f"\nrelative residual after all that churn: "
          f"{Poisson2D.manufactured(n).residual_norm(x):.2e}")

    path = "churn_resilience_trace.jsonl"
    n_events = write_jsonl(tracer, path)
    print(f"\nwrote {n_events} trace events to {path}")

    report = build_run_report(
        telemetry=cluster.telemetry, network=cluster.network, tracer=tracer,
        spawners=cluster.spawners, superpeers=cluster.superpeers,
        app_id=app.app_id,
    )
    print()
    print(report.to_text())


if __name__ == "__main__":
    main()
