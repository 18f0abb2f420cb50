"""Ablation A7 — register-broadcast traffic: full vs delta (§8).

§8 names "broadcast of register" among the aspects "probably needing to be
improved": every membership change re-ships the whole Application Register
(O(num_tasks) stubs) to every computing peer — O(num_tasks²) bytes per
change.  The delta mode ships only the changed slots, with a pull-based
full resync on version gaps.

Measured: total broadcast bytes for the same churny execution, both modes,
at two application sizes.  Shape: delta saves bytes, and its advantage
grows with the task count; both modes stay correct.
"""

import pytest

from repro.apps import make_poisson_app
from repro.churn import PaperChurn, churn_plan
from repro.experiments.config import EXPERIMENT_CONFIG, EXPERIMENT_LINK_SCALE
from repro.experiments.report import format_table
from repro.faults import FaultInjector
from repro.p2p import build_cluster, launch_application
from repro.util.rng import RngTree


def run_once(mode: str, peers: int, seed: int = 6):
    cluster = build_cluster(
        n_daemons=peers + 6, n_superpeers=3, seed=seed,
        config=EXPERIMENT_CONFIG.with_(broadcast_mode=mode),
        link_scale=EXPERIMENT_LINK_SCALE,
    )
    app = make_poisson_app("p", n=64, num_tasks=peers, overlap=2)
    spawner = launch_application(cluster, app)
    rng = RngTree(seed).child("churn")
    FaultInjector(
        cluster.sim,
        churn_plan(PaperChurn(4, reconnect_delay=1.0), rng, horizon=1.2),
        rng=rng, hosts=cluster.testbed.daemon_hosts, entity="churn",
        victim_filter=lambda h: (
            (d := cluster.daemons.get(h.name)) is not None
            and d.runner is not None
        ),
    )
    sim = cluster.sim
    sim.run(until=sim.any_of([spawner.done, sim.timeout(600.0)]))
    return spawner


@pytest.mark.benchmark(group="ablation")
def test_delta_broadcast_saves_bytes(benchmark, record_table):
    def sweep():
        rows = []
        for peers in (8, 16):
            byte_counts = {}
            for mode in ("full", "delta"):
                spawner = run_once(mode, peers)
                assert spawner.done.triggered, f"{mode}@{peers} did not finish"
                byte_counts[mode] = spawner.broadcast_bytes
            rows.append([
                peers,
                byte_counts["full"],
                byte_counts["delta"],
                round(byte_counts["full"] / max(byte_counts["delta"], 1), 2),
            ])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_table(
        "register_broadcast",
        format_table(
            ["peers", "full bytes", "delta bytes", "full/delta"],
            rows,
            title="A7: register-broadcast traffic under 4 disconnections",
        ),
    )
    for peers, full_bytes, delta_bytes, ratio in rows:
        assert delta_bytes < full_bytes, f"{peers} peers: delta did not save"
    # the advantage grows with the application size
    assert rows[1][3] >= rows[0][3] * 0.9
