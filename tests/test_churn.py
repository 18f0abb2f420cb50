"""Tests for churn models and the failure injector."""

import pytest

from repro.churn import (
    ChurnEvent,
    PaperChurn,
    TraceChurn,
    churn_plan,
)
from repro.des import Simulator
from repro.errors import FaultError
from repro.faults import DaemonCrash, FaultInjector
from repro.net import Network
from repro.obs import Tracer
from repro.util.rng import RngTree

from tests.helpers import churn_injector, select


# --------------------------------------------------------------------- models


def test_churn_event_validation():
    with pytest.raises(ValueError):
        ChurnEvent(-1.0, 5.0)
    with pytest.raises(ValueError):
        ChurnEvent(1.0, 0.0)


def test_no_churn_is_empty():
    assert PaperChurn(0).schedule(RngTree(0), 100.0) == []


def test_paper_churn_count_and_window():
    model = PaperChurn(n_disconnections=20, reconnect_delay=20.0)
    events = model.schedule(RngTree(1), horizon=1000.0)
    assert len(events) == 20
    assert all(e.duration == 20.0 for e in events)
    assert all(50.0 <= e.time <= 850.0 for e in events)  # default window
    assert events == sorted(events)
    assert all(e.host is None for e in events)  # victims picked at fire time


def test_paper_churn_deterministic_per_seed():
    m = PaperChurn(5)
    assert m.schedule(RngTree(3), 100.0) == m.schedule(RngTree(3), 100.0)
    assert m.schedule(RngTree(3), 100.0) != m.schedule(RngTree(4), 100.0)


def test_paper_churn_validation():
    with pytest.raises(ValueError):
        PaperChurn(-1)
    with pytest.raises(ValueError):
        PaperChurn(1, reconnect_delay=0)
    with pytest.raises(ValueError):
        PaperChurn(1).schedule(RngTree(0), horizon=0.0)


def test_trace_churn_replays_sorted():
    events = (ChurnEvent(5.0, 2.0, "h1"), ChurnEvent(1.0, 2.0, "h0"))
    out = TraceChurn(events).schedule(RngTree(0), 100.0)
    assert [e.time for e in out] == [1.0, 5.0]
    assert out[0].host == "h0"


# ------------------------------------------------------------------- injector


def make_pool(n=4, tracer=None):
    sim = Simulator(tracer=tracer)
    net = Network(sim)
    hosts = [net.new_host(f"h{i}") for i in range(n)]
    return sim, hosts


def executed_hosts(inj):
    return [rec.detail["host"] for rec in inj.executed]


def test_churn_plan_is_one_pinned_crash_per_event():
    trace = TraceChurn((ChurnEvent(5.0, 2.0, "h1"), ChurnEvent(1.0, 3.0, None)))
    plan = churn_plan(trace, RngTree(0), horizon=100.0)
    assert plan.name == "churn"
    assert [(a.time, a.host, a.downtime) for a in plan.actions] == [
        (1.0, None, 3.0), (5.0, "h1", 2.0),
    ]
    assert all(isinstance(a, DaemonCrash) for a in plan.actions)
    # the schedule stream is rng.child("schedule"), as every seeded run expects
    model = PaperChurn(4)
    assert [a.time for a in churn_plan(model, RngTree(3), 50.0).actions] == [
        e.time for e in model.schedule(RngTree(3).child("schedule"), 50.0)
    ]


def test_injector_executes_schedule_and_recovers():
    tracer = Tracer()
    sim, hosts = make_pool(3, tracer=tracer)
    trace = TraceChurn((ChurnEvent(2.0, 5.0, "h1"),))
    inj = churn_injector(sim, hosts, trace, RngTree(0), horizon=100.0)
    sim.run(until=3.0)
    assert not hosts[1].online
    sim.run(until=8.0)
    assert hosts[1].online
    assert len(inj.executed) == 1
    assert tracer.count("faults", "daemon_crash") == 1
    assert tracer.count("faults", "recover") == 1
    crash, = select(tracer, category="faults", kind="daemon_crash")
    assert crash.entity == "churn"
    assert crash.attrs == {"host": "h1", "downtime": 5.0}


def test_injector_random_victims_are_alive_hosts():
    sim, hosts = make_pool(5)
    inj = churn_injector(
        sim, hosts, PaperChurn(10, reconnect_delay=1.0), RngTree(7), horizon=100.0
    )
    sim.run()
    assert len(inj.executed) == 10
    assert set(executed_hosts(inj)) <= {h.name for h in hosts}
    # after the run everyone reconnected
    assert all(h.online for h in hosts)


def test_injector_skips_when_no_victim_available():
    sim, hosts = make_pool(1)
    # one host, two overlapping disconnections: the second finds nobody alive
    trace = TraceChurn((ChurnEvent(1.0, 10.0, None), ChurnEvent(2.0, 10.0, None)))
    inj = churn_injector(sim, hosts, trace, RngTree(0), horizon=50.0)
    sim.run()
    assert len(inj.executed) == 1
    assert inj.skipped == 1


def test_injector_trace_victim_down_is_skipped():
    sim, hosts = make_pool(2)
    trace = TraceChurn(
        (ChurnEvent(1.0, 10.0, "h0"), ChurnEvent(2.0, 1.0, "h0"))  # h0 already down
    )
    inj = churn_injector(sim, hosts, trace, RngTree(0), horizon=50.0)
    sim.run()
    assert len(inj.executed) == 1
    assert inj.skipped == 1


def test_injector_executed_trace_is_replayable():
    sim, hosts = make_pool(4)
    inj = churn_injector(
        sim, hosts, PaperChurn(5, reconnect_delay=2.0), RngTree(9), horizon=50.0
    )
    sim.run()

    sim2, hosts2 = make_pool(4)
    inj2 = FaultInjector(sim2, inj.executed_plan(), rng=RngTree(123),
                         hosts=hosts2, entity="churn")
    sim2.run()
    assert executed_hosts(inj2) == executed_hosts(inj)
    assert [r.time for r in inj2.executed] == [r.time for r in inj.executed]


def test_injector_requires_hosts():
    sim = Simulator()
    with pytest.raises(FaultError):
        churn_injector(sim, [], PaperChurn(1), RngTree(0), horizon=10.0)
    # an empty schedule asks nothing of the host pool and does nothing
    inj = churn_injector(sim, [], PaperChurn(0), RngTree(0), horizon=10.0)
    sim.run()
    assert inj.executed == [] and inj.skipped == 0


def test_injector_determinism():
    names = []
    for _ in range(2):
        sim, hosts = make_pool(6)
        inj = churn_injector(
            sim, hosts, PaperChurn(8, reconnect_delay=1.0), RngTree(5), horizon=200.0
        )
        sim.run()
        names.append(executed_hosts(inj))
    assert names[0] == names[1]
