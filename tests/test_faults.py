"""Tests for the fault-plane scenario engine (``repro.faults``)."""

import pytest

from repro.errors import ConfigurationError, FaultError
from repro.exec import RunCache, RunSpec, SweepEngine
from repro.faults import (
    SCENARIOS,
    DaemonCrash,
    FaultInjector,
    FaultPlan,
    HealAction,
    MessageCorruption,
    PartitionAction,
    SuperPeerCrash,
    action_from_dict,
    scenario,
    scenario_names,
    scenario_overrides,
)
from repro.net import Address
from repro.p2p import build_cluster
from repro.util.rng import RngTree

#: the acceptance scenario from the issue: a Super-Peer crash, a two-group
#: partition that heals, message corruption, and a Daemon crash — all in one
#: seeded plan that must still converge to the CORRECT solution.
ACCEPTANCE_PLAN = FaultPlan.of(
    MessageCorruption(time=0.02, duration=0.25, rate=0.10),
    SuperPeerCrash(time=0.05, downtime=0.15),
    PartitionAction(time=0.10, groups=(("daemon-host-0", "daemon-host-1"),),
                    duration=0.08),
    DaemonCrash(time=0.12, downtime=0.10),
    name="acceptance",
)


# -- actions and plans --------------------------------------------------------


def test_actions_validate_their_fields():
    with pytest.raises(ConfigurationError):
        DaemonCrash(time=-1.0)
    with pytest.raises(ConfigurationError):
        DaemonCrash(time=0.0, downtime=0.0)
    with pytest.raises(ConfigurationError):
        PartitionAction(time=0.0, groups=())
    with pytest.raises(ConfigurationError):
        MessageCorruption(time=0.0, duration=0.1, rate=1.5)


def test_action_from_dict_rejects_unknown_kind():
    with pytest.raises(ConfigurationError):
        action_from_dict({"kind": "meteor-strike", "time": 0.1})


def test_plan_round_trips_through_dict():
    plan = ACCEPTANCE_PLAN
    clone = FaultPlan.from_dict(plan.to_dict())
    assert clone == plan
    assert clone.name == "acceptance"
    assert [a.kind for a in clone.schedule()] == [
        "corruption", "superpeer_crash", "partition", "daemon_crash",
    ]


def test_plan_schedule_is_time_sorted():
    plan = FaultPlan.of(
        HealAction(time=0.3),
        DaemonCrash(time=0.1),
        PartitionAction(time=0.2, groups=(("a",),)),
    )
    assert [a.time for a in plan.schedule()] == [0.1, 0.2, 0.3]


def test_plans_compose_with_add():
    a = FaultPlan.of(DaemonCrash(time=0.1), name="a")
    b = FaultPlan.of(SuperPeerCrash(time=0.2), name="b")
    combined = a + b
    assert len(combined) == 2
    assert not FaultPlan()
    assert combined


def test_scenario_catalogue():
    assert set(scenario_names()) == set(SCENARIOS)
    # all ten scenarios, including the control-plane trio added with the
    # gossip failover work and the corruption-filter acceptance scenario
    assert {"spawner-down", "standby-flap", "discovery-storm",
            "poisoned-channel"} <= set(SCENARIOS)
    assert len(SCENARIOS) == 10
    for name in scenario_names():
        plan = scenario(name)
        assert len(plan) >= 1
        assert plan.name == name
        # every catalogued plan survives the dict round-trip (cache keys);
        # serialization is schedule-ordered, so compare schedules
        assert FaultPlan.from_dict(plan.to_dict()).schedule() == plan.schedule()
    with pytest.raises(ConfigurationError):
        scenario("no-such-scenario")


def test_scenario_overrides_surface_control_plane_requirements():
    assert scenario_overrides("spawner-down") == {"gossip": True,
                                                  "standby": True}
    assert scenario_overrides("discovery-storm") == {"gossip": True}
    assert scenario_overrides("churn-burst") == {}


def test_runspec_carries_faults_through_dict():
    spec = RunSpec(n=32, peers=4, seed=0, faults=ACCEPTANCE_PLAN)
    clone = RunSpec.from_dict(spec.to_dict())
    assert clone.faults == ACCEPTANCE_PLAN
    assert clone.key() == spec.key()
    assert RunSpec.from_dict(RunSpec(n=32, peers=4).to_dict()).faults is None


# -- the injector against a live cluster -------------------------------------


def test_injector_requires_context_for_actions():
    cluster = build_cluster(n_daemons=2, n_superpeers=1, seed=0)
    plan = FaultPlan.of(SuperPeerCrash(time=0.1))
    with pytest.raises(FaultError):
        FaultInjector(cluster.sim, plan, rng=RngTree(0),
                      hosts=cluster.testbed.daemon_hosts)  # no cluster: SP unknown


def test_injector_executes_and_records_daemon_crash():
    cluster = build_cluster(n_daemons=3, n_superpeers=1, seed=0)
    plan = FaultPlan.of(DaemonCrash(time=0.05, downtime=0.02))
    inj = FaultInjector(cluster.sim, plan, rng=RngTree(7).child("faults"),
                        cluster=cluster)
    cluster.sim.run(until=0.2)
    assert len(inj.executed) == 1
    rec = inj.executed[0]
    assert rec.kind == "daemon_crash"
    assert rec.detail["host"].startswith("daemon-host-")
    # the victim recovered and a fresh incarnation re-registered
    assert cluster.incarnations[rec.detail["host"]] == 2


def test_executed_plan_is_a_pinned_replay():
    cluster = build_cluster(n_daemons=3, n_superpeers=1, seed=0)
    plan = FaultPlan.of(DaemonCrash(time=0.05, downtime=0.02))
    inj = FaultInjector(cluster.sim, plan, rng=RngTree(7).child("faults"),
                        cluster=cluster)
    cluster.sim.run(until=0.2)
    replay = inj.executed_plan()
    (action,) = replay.schedule()
    assert isinstance(action, DaemonCrash)
    assert action.host == inj.executed[0].detail["host"]  # victim pinned
    assert action.downtime == pytest.approx(0.02)


def test_superpeer_crash_reboots_with_same_identity():
    cluster = build_cluster(n_daemons=3, n_superpeers=2, seed=0)
    before = {sp.sp_id: sp for sp in cluster.superpeers}
    plan = FaultPlan.of(SuperPeerCrash(time=0.05, downtime=0.05))
    inj = FaultInjector(cluster.sim, plan, rng=RngTree(3).child("faults"),
                        cluster=cluster)
    cluster.sim.run(until=0.3)
    assert len(inj.executed) == 1
    sp_id = inj.executed[0].detail["sp_id"]
    replacement = next(sp for sp in cluster.superpeers if sp.sp_id == sp_id)
    assert replacement is not before[sp_id]  # a fresh incarnation
    assert {sp.sp_id for sp in cluster.superpeers} == set(before)


def test_partition_heals_automatically():
    cluster = build_cluster(n_daemons=4, n_superpeers=1, seed=0)
    net = cluster.network
    plan = FaultPlan.of(PartitionAction(
        time=0.05, groups=(("daemon-host-0",),), duration=0.05))
    FaultInjector(cluster.sim, plan, rng=RngTree(0).child("faults"),
                  cluster=cluster)
    received = []
    net.host("daemon-host-1").open_endpoint(9999, received.append)

    def probe(tag):
        net.send(Address("daemon-host-0", 1), Address("daemon-host-1", 9999),
                 tag)

    cluster.sim.run(until=0.07)
    probe("cut")
    cluster.sim.run(until=0.2)
    probe("healed")
    cluster.sim.run(until=0.3)
    assert received == ["healed"]


def test_cancel_stops_pending_actions():
    cluster = build_cluster(n_daemons=3, n_superpeers=1, seed=0)
    plan = FaultPlan.of(DaemonCrash(time=0.05), DaemonCrash(time=5.0))
    inj = FaultInjector(cluster.sim, plan, rng=RngTree(0).child("faults"),
                        cluster=cluster)
    cluster.sim.run(until=0.1)
    inj.cancel()
    cluster.sim.run(until=6.0)
    assert len(inj.executed) == 1  # the t=5.0 crash never fired


# -- churn front-end equivalence ----------------------------------------------


def test_churn_runs_are_unchanged_by_the_fault_plane():
    """Churn is a plan on its own FaultInjector; seeded runs must not move."""
    a = RunSpec(n=24, peers=3, seed=2, disconnections=1).run()
    b = RunSpec(n=24, peers=3, seed=2, disconnections=1).run()
    assert a == b
    assert a.converged
    assert a.disconnections_executed == 1
    assert a.faults_executed == 0  # churn is reported separately


# -- end-to-end acceptance -----------------------------------------------------


def test_acceptance_scenario_converges_to_the_correct_solution():
    """SP crash + partition/heal + corruption + daemon crash, one seed:
    the run must converge to the RIGHT fixed point, not merely converge."""
    spec = RunSpec(n=32, peers=4, seed=0, faults=ACCEPTANCE_PLAN)
    result = spec.run()
    assert result.converged
    assert result.residual < 1e-4
    assert result.faults_executed == 4
    assert result.messages_corrupted >= 1


def test_acceptance_scenario_is_engine_and_cache_invariant(tmp_path):
    spec = RunSpec(n=32, peers=4, seed=0, faults=ACCEPTANCE_PLAN)
    serial = spec.run()
    engine = SweepEngine(workers=4, cache=RunCache(tmp_path / "cache"))
    pooled = engine.run(spec)
    cached = engine.run(spec)
    assert pooled == serial
    assert cached == serial


def test_acceptance_report_shows_reregistration_and_recovery():
    spec = RunSpec(n=32, peers=4, seed=0, faults=ACCEPTANCE_PLAN, traced=True)
    result = spec.execute()
    report = result.run_report
    assert report is not None
    kinds = [rec["kind"] for rec in report.faults]
    assert kinds == ["corruption", "superpeer_crash",
                     "partition", "daemon_crash"]
    # the crashed Daemon's replacement recovered the task from a Backup
    assert len(report.recoveries) >= 1
    # Daemons re-registered after the Super-Peer reboot (initial
    # registrations number n_daemons; anything beyond is re-registration)
    registrations = report.event_counts.get(("p2p", "register"), 0)
    assert registrations > spec.normalized().n_daemons
    rendered = report.to_text()
    assert "fault history:" in rendered
    assert "superpeer_crash" in rendered
