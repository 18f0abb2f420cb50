"""Ablation A6 — hybrid P2P topology vs the JaceV centralized topology.

§2.2: "centralization may generate bottlenecks and can present some
scalability limits"; §4.1 positions JaceP2P as the decentralized successor
of the fully-centralized JaceV.

Measured, per population size:

* registry message load — the centralized server carries everything; the
  hybrid topology splits it across Super-Peers (max per-SP load well below
  the central load);
* survivability — the same application completes under a Super-Peer
  failure on the hybrid topology, and cannot complete under the central
  server's failure.
"""

import pytest

from repro.baselines import build_centralized_cluster
from repro.experiments.config import EXPERIMENT_CONFIG, EXPERIMENT_LINK_SCALE
from repro.experiments.report import format_table
from repro.p2p import build_cluster

from repro.apps import make_poisson_app
from repro.p2p.cluster import launch_application


@pytest.mark.benchmark(group="topology")
def test_registry_load_central_vs_hybrid(benchmark, record_table):
    populations = (10, 25, 50)

    def sweep():
        rows = []
        for pop in populations:
            central = build_centralized_cluster(
                n_daemons=pop, seed=1, config=EXPERIMENT_CONFIG,
                link_scale=EXPERIMENT_LINK_SCALE,
            )
            central.sim.run(until=10.0)
            central_load = central.superpeers[0].runtime.served

            hybrid = build_cluster(
                n_daemons=pop, n_superpeers=3, seed=1,
                config=EXPERIMENT_CONFIG, link_scale=EXPERIMENT_LINK_SCALE,
            )
            hybrid.sim.run(until=10.0)
            max_sp_load = max(
                sp.runtime.served for sp in hybrid.superpeers
            )
            rows.append([pop, central_load, max_sp_load,
                         round(central_load / max(max_sp_load, 1), 2)])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_table(
        "topology_load",
        format_table(
            ["daemons", "central server msgs", "max per-SP msgs (hybrid)",
             "ratio"],
            rows,
            title="A6: registry message load, centralized vs hybrid (10 s idle)",
        ),
    )
    for pop, central_load, max_sp, ratio in rows:
        assert max_sp < central_load, (
            f"population {pop}: hybrid did not spread the load"
        )
    # the bottleneck grows with the population
    assert rows[-1][1] > rows[0][1] * 3


@pytest.mark.benchmark(group="topology")
def test_survivability_central_vs_hybrid(benchmark, record_table):
    def run_pair():
        outcomes = {}
        # centralized: kill the central machine mid-run
        central = build_centralized_cluster(
            n_daemons=8, seed=2, config=EXPERIMENT_CONFIG,
            link_scale=EXPERIMENT_LINK_SCALE,
        )
        app = make_poisson_app("p", n=40, num_tasks=4, overlap=2)
        spawner = launch_application(central, app)
        sim = central.sim
        sim.run(until=0.2)
        central.testbed.spawner_host.fail(cause="bench")
        sim.run(until=sim.any_of([spawner.done, sim.timeout(30.0)]))
        outcomes["centralized"] = spawner.done.triggered

        # hybrid: kill a Super-Peer mid-run (the Spawner is a separate,
        # stable machine — the paper's only stability assumption, §5.5)
        hybrid = build_cluster(
            n_daemons=8, n_superpeers=3, seed=2, config=EXPERIMENT_CONFIG,
            link_scale=EXPERIMENT_LINK_SCALE,
        )
        app2 = make_poisson_app("p", n=40, num_tasks=4, overlap=2)
        spawner2 = launch_application(hybrid, app2)
        sim2 = hybrid.sim
        sim2.run(until=0.2)
        hybrid.superpeers[0].host.fail(cause="bench")
        sim2.run(until=sim2.any_of([spawner2.done, sim2.timeout(30.0)]))
        outcomes["hybrid"] = spawner2.done.triggered
        return outcomes

    outcomes = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    record_table(
        "topology_survivability",
        "A6: registry-machine failure mid-run\n"
        f"  centralized (JaceV-style): finished = {outcomes['centralized']}\n"
        f"  hybrid (JaceP2P):          finished = {outcomes['hybrid']}",
    )
    assert outcomes["hybrid"] is True
    assert outcomes["centralized"] is False
