"""Tests for the decentralized control plane (``repro.gossip`` + failover).

Covers the three robustness upgrades of docs/gossip.md — gossip-based
Super-Peer discovery, the epidemic convergence cross-check and the
warm-standby Spawner takeover — plus the bounded peer store they ride on,
and the bitwise-identity guarantee: with gossip disabled the quick
baseline run must not move by a single bit.
"""

import pytest

from repro.exec import RunSpec
from repro.faults import (
    FaultInjector,
    FaultPlan,
    SpawnerCrash,
    scenario,
    scenario_overrides,
)
from repro.gossip import PeerStore
from repro.net.address import Address
from repro.obs import Tracer
from repro.checkpoint import FixedPolicy
from repro.p2p import (
    P2PConfig,
    StableStore,
    build_cluster,
    launch_application,
    launch_standby,
)
from repro.p2p.daemon import BOOTSTRAP_RETRY_JITTER
from repro.util.rng import RngTree

from tests.helpers import make_geometric_app, run_until_done, select

#: FAST-style timing (seconds-scale iterations) with the control plane on
GOSSIP_FAST = P2PConfig(
    heartbeat_period=0.5,
    heartbeat_timeout=2.0,
    monitor_period=0.5,
    call_timeout=2.0,
    bootstrap_retry_delay=0.5,
    min_iteration_time=0.01,
    gossip_enabled=True,
    standby_enabled=True,
)
CKPT = FixedPolicy(count=3, frequency=5)


# -- the bounded peer store ----------------------------------------------------


def _addr(i: int) -> Address:
    return Address(f"h{i}", 4000)


def test_peer_store_is_bounded_and_rejects_when_healthy():
    store = PeerStore(limit=3, stale_after=10.0)
    for i in range(3):
        store.upsert(f"p{i}", "daemon", _addr(i), now=0.0, heard=True)
    assert len(store) == 3
    # every incumbent is fresh and probe-clean: the newcomer is rejected
    assert store.upsert("p9", "daemon", _addr(9), now=1.0, heard=True) is None
    assert _addr(9) not in store
    assert store.rejections == 1


def test_peer_store_evicts_the_failed_incumbent_first():
    store = PeerStore(limit=3, stale_after=10.0)
    for i in range(3):
        store.upsert(f"p{i}", "daemon", _addr(i), now=0.0, heard=True)
    store.mark_failed(_addr(1))
    evicted = store.upsert("p9", "daemon", _addr(9), now=1.0, heard=True)
    assert evicted is not None and evicted.address == _addr(1)
    assert _addr(9) in store and _addr(1) not in store
    assert store.evictions == 1


def test_peer_store_evicts_stale_over_fresh():
    store = PeerStore(limit=2, stale_after=5.0)
    store.upsert("old", "daemon", _addr(0), now=0.0, heard=True)
    store.upsert("new", "daemon", _addr(1), now=8.0, heard=True)
    evicted = store.upsert("p9", "daemon", _addr(9), now=9.0, heard=True)
    assert evicted is not None and evicted.peer_id == "old"


def test_peer_store_hearsay_never_refreshes_liveness():
    store = PeerStore(limit=4, stale_after=5.0)
    store.upsert("p0", "daemon", _addr(0), now=0.0, heard=True)
    store.mark_failed(_addr(0))
    # a peer-sample mention must not clear the probe failure
    store.upsert("p0", "daemon", _addr(0), now=3.0, heard=False)
    assert store.get(_addr(0)).fails == 1
    # a first-hand message does
    store.upsert("p0", "daemon", _addr(0), now=3.0, heard=True)
    assert store.get(_addr(0)).fails == 0


def test_peer_store_role_addresses_are_sorted():
    store = PeerStore(limit=8, stale_after=10.0)
    store.upsert("b", "superpeer", Address("sp-b", 4100), now=0.0, heard=True)
    store.upsert("a", "superpeer", Address("sp-a", 4100), now=0.0, heard=True)
    store.upsert("d", "daemon", _addr(0), now=0.0, heard=True)
    assert store.addresses_of_role("superpeer") == [
        Address("sp-a", 4100), Address("sp-b", 4100)
    ]


# -- discovery + backoff (§5.1 without the hardcoded roster) ------------------


def test_daemons_discover_superpeers_beyond_the_seed_list():
    """With gossip discovery on, Daemons are seeded with only TWO contact
    addresses but learn the rest of the Super-Peer roster over gossip."""
    cluster = build_cluster(n_daemons=5, n_superpeers=3, seed=2,
                            config=GOSSIP_FAST, checkpoint=CKPT)
    third = cluster.superpeer_addresses[2]
    assert all(d.gossip is not None for d in cluster.daemons.values())
    assert all(len(d.gossip.seeds) <= 2 for d in cluster.daemons.values())
    cluster.sim.run(until=10.0)
    learned = [d for d in cluster.daemons.values()
               if third in d._superpeer_candidates()]
    assert learned, "no Daemon discovered the unseeded Super-Peer"


def test_register_backoff_grows_is_bounded_and_deterministic():
    cluster = build_cluster(n_daemons=2, n_superpeers=1, seed=0,
                            config=GOSSIP_FAST, checkpoint=CKPT)
    daemon = next(iter(cluster.daemons.values()))
    delays = [daemon._retry_backoff() for _ in range(8)]
    config = cluster.config
    cap = config.bootstrap_retry_max * (1.0 + BOOTSTRAP_RETRY_JITTER)
    assert all(0 < d <= cap for d in delays)
    # exponential growth until the cap (jitter only stretches, never shrinks)
    assert delays[1] > delays[0]
    assert delays[-1] >= config.bootstrap_retry_max
    # deterministic: a fresh daemon in a reseeded cluster replays the draws
    clone = build_cluster(n_daemons=2, n_superpeers=1, seed=0,
                          config=GOSSIP_FAST, checkpoint=CKPT)
    twin = next(iter(clone.daemons.values()))
    assert [twin._retry_backoff() for _ in range(8)] == delays
    # a successful registration resets the schedule
    daemon._retry_attempt = 0
    assert daemon._retry_backoff() == delays[0]


# -- the epidemic convergence cross-check (§5.5 decentralized) ----------------


def test_gossip_run_cross_checks_convergence():
    cluster = build_cluster(n_daemons=5, n_superpeers=2, seed=3,
                            config=GOSSIP_FAST, checkpoint=CKPT)
    spawner = launch_application(cluster, make_geometric_app(num_tasks=3))
    assert run_until_done(cluster, spawner, horizon=300.0)
    assert spawner.gossip is not None
    # the halt decision required BOTH detectors: the centralized array
    # and the epidemic aggregate agreed at least once
    assert spawner.crosscheck_agreements >= 1
    assert spawner._epidemic_agrees()
    bits = spawner._epidemic_bits
    assert set(bits) == {0, 1, 2}
    assert all(stable for (_, _, stable) in bits.values())


# -- warm-standby takeover ----------------------------------------------------


def _slow_app(num_tasks=3):
    # rate 0.99: ~460 iterations to quiet down — slow enough that a crash
    # a few simulated seconds in always lands mid-run
    return make_geometric_app(num_tasks=num_tasks, rate=0.99)


def test_spawner_crash_promotes_standby_and_run_converges():
    cluster = build_cluster(n_daemons=6, n_superpeers=2, seed=4,
                            config=GOSSIP_FAST, checkpoint=CKPT)
    app = _slow_app()
    store = StableStore()
    primary = launch_application(cluster, app, stable_store=store)
    standby = launch_standby(cluster, app, primary, stable_store=store)
    FaultInjector(cluster.sim, FaultPlan.of(SpawnerCrash(time=2.0)),
                  rng=RngTree(1).child("faults"), cluster=cluster)
    sim = cluster.sim
    sim.run(until=sim.any_of([standby.done, sim.timeout(300.0)]))
    assert standby.promoted
    assert standby.takeover_at is not None and standby.takeover_at > 2.0
    assert standby.done.triggered, "promoted standby never converged the app"
    assert standby.spawner is not None
    assert standby.spawner.reign > 1
    # the computation carried on: the promoted register is fully assigned
    assert all(s.assigned for s in standby.spawner.register.slots)


def test_spawner_crash_replay_is_pinned_and_bit_identical():
    """The injector's executed plan replays the takeover bit for bit."""

    def run_once():
        cluster = build_cluster(n_daemons=6, n_superpeers=2, seed=4,
                                config=GOSSIP_FAST, checkpoint=CKPT)
        app = _slow_app()
        store = StableStore()
        primary = launch_application(cluster, app, stable_store=store)
        standby = launch_standby(cluster, app, primary, stable_store=store)
        inj = FaultInjector(cluster.sim, FaultPlan.of(SpawnerCrash(time=2.0)),
                            rng=RngTree(1).child("faults"), cluster=cluster)
        sim = cluster.sim
        sim.run(until=sim.any_of([standby.done, sim.timeout(300.0)]))
        return inj, standby

    inj_a, standby_a = run_once()
    replay = inj_a.executed_plan()
    (action,) = replay.schedule()
    assert isinstance(action, SpawnerCrash)
    assert action.time == 2.0 and action.downtime is None
    inj_b, standby_b = run_once()
    assert inj_b.executed_plan() == replay
    assert standby_b.takeover_at == standby_a.takeover_at
    assert standby_b.spawner.execution_time == standby_a.spawner.execution_time


def test_ghost_runners_reattach_to_the_promoted_spawner():
    """A standby whose shadow predates the assignments must still inherit
    the live computation: ghosts adopt the new leader over gossip and
    reclaim their slots via ``reattach_task`` instead of heartbeating a
    dead address forever."""
    cluster = build_cluster(n_daemons=6, n_superpeers=2, seed=4,
                            config=GOSSIP_FAST, checkpoint=CKPT)
    app = _slow_app()
    store = StableStore()
    primary = launch_application(cluster, app, stable_store=store)
    standby = launch_standby(cluster, app, primary, stable_store=store)
    FaultInjector(cluster.sim, FaultPlan.of(SpawnerCrash(time=2.0)),
                  rng=RngTree(1).child("faults"), cluster=cluster)
    sim = cluster.sim
    sim.run(until=sim.any_of([standby.done, sim.timeout(300.0)]))
    assert standby.done.triggered
    promoted = standby.spawner
    # survivors re-pointed at the new leader (direct announce or epidemic)
    adopted = [d for d in cluster.daemons.values()
               if d.runner is None or d.runner.leader_reign == promoted.reign]
    assert len(adopted) == len(cluster.daemons)


def test_both_adoption_routes_trace_one_shape():
    """A direct takeover announcement and a gossiped leadership beat
    re-point a runner through the same step: their ``adopt_spawner``
    events differ only in the gossip route's ``via`` tag."""
    direct = Tracer()
    cluster = build_cluster(n_daemons=6, n_superpeers=2, seed=4,
                            config=GOSSIP_FAST, checkpoint=CKPT,
                            tracer=direct)
    app = _slow_app()
    store = StableStore()
    primary = launch_application(cluster, app, stable_store=store)
    standby = launch_standby(cluster, app, primary, stable_store=store)
    FaultInjector(cluster.sim, FaultPlan.of(SpawnerCrash(time=2.0)),
                  rng=RngTree(1).child("faults"), cluster=cluster)
    sim = cluster.sim
    sim.run(until=sim.any_of([standby.done, sim.timeout(300.0)]))
    gossiped = Tracer()
    RunSpec(n=16, peers=3, seed=11, convergence_threshold=1e-6,
            faults=scenario("spawner-down"),
            **scenario_overrides("spawner-down")).run(tracer=gossiped)
    shapes = set()
    for tracer in (direct, gossiped):
        for ev in select(tracer, kind="adopt_spawner"):
            assert ev.attrs["reign"] > 1
            assert ev.attrs.get("via", "gossip") == "gossip"
            shapes.add(tuple(ev.attrs))
    assert shapes == {("reign", "spawner"), ("reign", "spawner", "via")}


def test_spawner_flap_keeps_exactly_one_leader():
    """The resurrected primary must abdicate to the promoted standby."""
    cluster = build_cluster(n_daemons=6, n_superpeers=2, seed=4,
                            config=GOSSIP_FAST, checkpoint=CKPT)
    app = _slow_app()
    store = StableStore()
    primary = launch_application(cluster, app, stable_store=store)
    standby = launch_standby(cluster, app, primary, stable_store=store)
    inj = FaultInjector(
        cluster.sim,
        FaultPlan.of(SpawnerCrash(time=2.0, downtime=8.0)),
        rng=RngTree(1).child("faults"), cluster=cluster)
    sim = cluster.sim
    sim.run(until=sim.any_of([standby.done, sim.timeout(300.0)]))
    assert standby.promoted and standby.done.triggered
    # the flap resurrected the host but no second Spawner was resumed:
    # only the original launch is registered with the cluster
    assert len(cluster.spawners) == 1
    assert inj.counts == {"spawner_crash": 1}
    assert standby.active_reign > primary.reign


# -- RunSpec surface + bitwise identity ---------------------------------------


def test_gossip_scenarios_round_trip_and_spawner_crash_validates():
    for name in ("spawner-down", "standby-flap", "discovery-storm"):
        plan = scenario(name)
        assert FaultPlan.from_dict(plan.to_dict()) == plan
    clone = FaultPlan.from_dict(
        FaultPlan.of(SpawnerCrash(time=0.1, downtime=0.5)).to_dict())
    (action,) = clone.schedule()
    assert isinstance(action, SpawnerCrash)
    assert action.downtime == 0.5
    with pytest.raises(Exception):
        SpawnerCrash(time=0.1, downtime=0.0)


def test_runspec_carries_gossip_flags_through_dict():
    spec = RunSpec(n=32, peers=4, seed=0, gossip=True, standby=True)
    clone = RunSpec.from_dict(spec.to_dict())
    assert clone.gossip and clone.standby
    assert clone.key() == spec.key()
    assert clone.key() != RunSpec(n=32, peers=4, seed=0).key()


def test_gossip_disabled_run_is_bitwise_identical_to_the_baseline():
    """The control plane must be free when off: the quick seeded run
    reproduces its pinned numbers exactly (re-pinned only when the
    runtime's own timeline moves on purpose)."""
    result = RunSpec(n=32, peers=4, seed=0).run()
    assert result.simulated_time == 0.40909243474234464
    assert result.total_iterations == 2096
    assert result.residual == 2.0690927080258206e-06
    assert result.takeovers == 0 and result.takeover_at is None
