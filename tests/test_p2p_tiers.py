"""Tests for the hierarchical Super-Peer topology (docs/scaling.md).

Covers the tier plan arithmetic, cluster wiring (leaves hold Daemon
Registers, interior Super-Peers hold child summaries, top tier is
mesh-linked), cross-tier reservation forwarding, subtree eviction when a
mid-tier Super-Peer crashes (plus recovery re-attachment), and the
timer-wheel heartbeat path end to end.
"""

import pytest

from repro.p2p import P2PConfig, build_cluster
from repro.p2p.cluster import tier_sizes
from repro.rmi import RmiRuntime

CFG = P2PConfig(
    heartbeat_period=0.1,
    heartbeat_timeout=0.35,
    monitor_period=0.1,
    call_timeout=1.0,
    superpeer_tiers=2,
    superpeer_fanout=2,
)


def tiered_cluster(n_daemons=8, n_superpeers=4, cfg=CFG, **overrides):
    return build_cluster(
        n_daemons=n_daemons,
        n_superpeers=n_superpeers,
        seed=0,
        config=cfg.with_(**overrides) if overrides else cfg,
    )


# -- tier plan ---------------------------------------------------------------


def test_tier_sizes_plan():
    assert tier_sizes(32, 3, 8) == [32, 4, 1]
    assert tier_sizes(4, 3, 2) == [4, 2, 1]
    assert tier_sizes(8, 1, 4) == [8]  # flat: one tier, no interiors


def test_tier_sizes_stops_at_single_root():
    # a 5-tier request over 2 leaves collapses after one interior tier
    assert tier_sizes(2, 5, 4) == [2, 1]
    assert tier_sizes(1, 4, 2) == [1]


# -- cluster wiring ----------------------------------------------------------


def test_tiered_cluster_wiring():
    cluster = tiered_cluster()
    # sizes [4, 2]: four leaves plus two interior Super-Peers
    assert len(cluster.superpeers) == 6
    assert [sp.sp_id for sp in cluster.leaf_superpeers] == [
        "SP0", "SP1", "SP2", "SP3"
    ]
    t1 = cluster.superpeers_of_tier(1)
    assert [sp.sp_id for sp in t1] == ["SP-t1.0", "SP-t1.1"]
    # contiguous fanout-2 blocks
    assert cluster.sp_parent == {
        "SP0": "SP-t1.0", "SP1": "SP-t1.0",
        "SP2": "SP-t1.1", "SP3": "SP-t1.1",
    }
    assert cluster.sp_children == {
        "SP-t1.0": ["SP0", "SP1"], "SP-t1.1": ["SP2", "SP3"],
    }
    # leaves point up, no sideways links; the top tier is a mesh
    for leaf in cluster.leaf_superpeers:
        assert leaf.parent_stub is not None
        assert leaf.neighbour_stubs == []
    assert len(t1[0].neighbour_stubs) == 1
    assert t1[0].neighbour_stubs[0].address == t1[1].stub.address
    # bootstrap entry points are the Register-holding leaves only
    assert len(cluster.superpeer_addresses) == 4


def test_daemons_register_only_with_leaves():
    cluster = tiered_cluster()
    cluster.sim.run(until=1.0)
    assert cluster.registered_daemons() == 8
    for sp in cluster.superpeers_of_tier(1):
        assert sp.register == {}
    # aggregated summaries reached the interior tier: every leaf reported
    for sp in cluster.superpeers_of_tier(1):
        assert set(sp.child_summaries) == set(cluster.sp_children[sp.sp_id])
        assert sp.summaries_sent == 0  # roots have no parent to report to
    total_summarized = sum(
        sp.subtree_idle() for sp in cluster.superpeers_of_tier(1)
    )
    assert total_summarized == 8


# -- cross-tier reservation --------------------------------------------------


def test_reservation_forwards_across_tiers():
    """Demand exceeding one leaf's Register drains the whole tree: local
    Register -> up to the parent -> down into sibling subtrees -> across
    the top-tier mesh into the other interior Super-Peer's subtree."""
    cluster = tiered_cluster()
    sim = cluster.sim
    sim.run(until=1.0)  # bootstrap + at least one summary round
    sp0 = cluster.superpeer_by_id("SP0")
    client = RmiRuntime(cluster.network, cluster.network.new_host("client"),
                        4900, name="client")

    def script(env):
        picked = yield client.call(sp0.stub, "reserve", 8, timeout=10.0)
        return picked

    p = sim.process(script(sim))
    sim.run(until=p)
    assert len(p.value) == 8
    assert len({daemon_id for daemon_id, _ in p.value}) == 8
    # every Register drained, and the request really was forwarded
    assert cluster.registered_daemons() == 0
    assert sp0.forwarded_requests >= 1
    parent = cluster.superpeer_by_id("SP-t1.0")
    assert parent.forwarded_requests >= 1  # parent fanned out the remainder


def test_reservation_flat_topology_unchanged():
    cluster = tiered_cluster(cfg=CFG.with_(superpeer_tiers=1))
    sim = cluster.sim
    sim.run(until=1.0)
    sp0 = cluster.superpeer_by_id("SP0")
    assert sp0.parent_stub is None and sp0.child_summaries == {}
    client = RmiRuntime(cluster.network, cluster.network.new_host("client"),
                        4900, name="client")

    def script(env):
        picked = yield client.call(sp0.stub, "reserve", 8, timeout=10.0)
        return picked

    p = sim.process(script(sim))
    sim.run(until=p)
    assert len(p.value) == 8  # neighbour forwarding still covers the mesh


# -- subtree eviction and recovery -------------------------------------------


def test_mid_tier_crash_evicts_subtree():
    # three tiers over four leaves: [4, 2, 1] — a single root
    cluster = tiered_cluster(cfg=CFG.with_(superpeer_tiers=3))
    sim = cluster.sim
    sim.run(until=1.0)
    (root,) = cluster.superpeers_of_tier(2)
    assert set(root.child_summaries) == {"SP-t1.0", "SP-t1.1"}

    victim = cluster.superpeer_by_id("SP-t1.0")
    victim.host.fail(cause="test")
    sim.run(until=2.0)  # well past heartbeat_timeout
    assert "SP-t1.0" not in root.child_summaries
    assert root.subtree_evictions >= 1
    # the sibling subtree keeps reporting
    assert "SP-t1.1" in root.child_summaries


def test_mid_tier_recovery_reattaches_subtree():
    cluster = tiered_cluster(cfg=CFG.with_(superpeer_tiers=3))
    sim = cluster.sim
    sim.run(until=1.0)
    (root,) = cluster.superpeers_of_tier(2)
    victim = cluster.superpeer_by_id("SP-t1.0")
    host = victim.host
    host.fail(cause="test")
    sim.run(until=2.0)
    assert "SP-t1.0" not in root.child_summaries

    host.recover()
    replacement = cluster.boot_superpeer(host)
    assert replacement is not victim
    assert replacement.tier == 1
    sim.run(until=3.0)
    # the replacement re-adopted its children, resumed summarizing, and
    # the root hears about the subtree again
    assert set(replacement.child_summaries) == {"SP0", "SP1"}
    assert "SP-t1.0" in root.child_summaries
    assert root.child_summaries["SP-t1.0"].idle == replacement.subtree_idle()


# -- timer-wheel heartbeats --------------------------------------------------


def test_wheel_mode_daemons_register_and_stay():
    cluster = tiered_cluster()
    sim = cluster.sim
    sim.run(until=2.0)
    assert cluster.registered_daemons() == 8
    # no evictions: oneway beats kept every record fresh
    assert sum(sp.evictions for sp in cluster.superpeers) == 0
    assert cluster.wheel.timers_fired > 0


def test_wheel_mode_nack_triggers_reregistration():
    cluster = tiered_cluster()
    sim = cluster.sim
    sim.run(until=1.0)
    # forcibly forget one Daemon at its leaf (as a rebooted Super-Peer
    # would): its next oneway beat draws a notify_unknown nack and the
    # Daemon must re-bootstrap
    leaf = next(sp for sp in cluster.leaf_superpeers if sp.register)
    daemon_id = next(iter(leaf.register))
    del leaf.register[daemon_id]
    assert cluster.registered_daemons() == 7
    sim.run(until=3.0)
    assert cluster.registered_daemons() == 8


def test_wheel_mode_dead_host_leaves_wheel_and_gets_evicted():
    cluster = tiered_cluster()
    sim = cluster.sim
    sim.run(until=1.0)
    alive_before = len(cluster.wheel)
    victim = cluster.testbed.daemon_hosts[0]
    victim.fail(cause="test")
    sim.run(until=2.5)
    # the dead Daemon's periodic entry deregistered itself and the leaf's
    # timeout protocol evicted the silent record
    assert len(cluster.wheel) == alive_before - 1
    assert cluster.registered_daemons() == 7
    assert sum(sp.evictions for sp in cluster.superpeers) == 1


def test_wheel_mode_tiered_run_converges():
    from repro.exec import RunSpec
    from repro.experiments.config import EXPERIMENT_CONFIG

    result = RunSpec(
        n=16, peers=4, n_daemons=10, n_superpeers=4,
        config=EXPERIMENT_CONFIG.with_(superpeer_tiers=2, superpeer_fanout=2),
    ).run()
    assert result.converged
    assert result.residual is not None and result.residual < 1e-3
