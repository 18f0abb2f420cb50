"""Tests for the synchronous (BSP) engine."""

import pytest

from repro.apps import make_poisson_app
from repro.baselines import SynchronousEngine, sync_engine
from repro.churn import ChurnEvent, TraceChurn
from repro.des import Simulator
from repro.net import Network, UniformLinkModel
from repro.numerics import Poisson2D
from repro.obs import Tracer
from repro.util.rng import RngTree

from tests.helpers import (
    assemble_strip_solution,
    churn_injector,
    make_geometric_app,
)


def make_world(n_hosts):
    sim = Simulator()
    net = Network(sim, link_model=UniformLinkModel(latency=1e-4))
    hosts = [net.new_host(f"h{i}", speed=1.0 + 0.2 * i) for i in range(n_hosts)]
    return sim, net, hosts


# ------------------------------------------------------------------- sync BSP


def test_sync_engine_solves_poisson():
    sim, net, hosts = make_world(4)
    app = make_poisson_app("p", n=12, num_tasks=4, convergence_threshold=1e-8)
    engine = SynchronousEngine(sim, hosts, app)
    result = sim.run(until=engine.done)
    assert result.converged
    x = assemble_strip_solution(result.fragments, 144)
    assert Poisson2D.manufactured(12).residual_norm(x) < 1e-5
    assert result.supersteps > 1
    assert result.rollbacks == 0 and result.stall_time == 0.0


def test_sync_engine_stalls_until_host_returns():
    sim, net, hosts = make_world(3)
    sim.tracer = Tracer()
    app = make_geometric_app(num_tasks=3, rate=0.99, threshold=1e-8, flops=5e6)
    engine = SynchronousEngine(sim, hosts, app)
    trace = TraceChurn((ChurnEvent(0.05, 3.0, "h1"),))
    churn_injector(sim, hosts, trace, RngTree(0), horizon=100.0)
    result = sim.run(until=engine.done)
    assert result.converged
    assert result.stall_time >= 2.0  # waited out most of the 3s outage
    assert result.rollbacks >= 1
    assert result.lost_iterations > 0
    aborted = sim.tracer.count("baselines", "sync_superstep_aborted")
    assert aborted == result.rollbacks
    assert sim.tracer.count("baselines", "sync_converged") == 1


def test_sync_rollback_costs_everyone():
    """One disconnection discards ALL tasks' progress since the last
    coordinated checkpoint (lost >= tasks * 1 sweeps)."""
    sim, net, hosts = make_world(4)
    app = make_geometric_app(num_tasks=4, rate=0.999, threshold=1e-9, flops=5e6)
    engine = SynchronousEngine(sim, hosts, app, checkpoint_frequency=10)
    trace = TraceChurn((ChurnEvent(0.2, 1.0, "h2"),))
    churn_injector(sim, hosts, trace, RngTree(0), horizon=100.0)
    result = sim.run(until=engine.done)
    assert result.converged
    assert result.rollbacks >= 1
    assert result.lost_iterations >= 4  # num_tasks * >=1 superstep each


def test_sync_engine_superstep_paced_by_slowest_host():
    app = make_geometric_app(num_tasks=2, rate=0.5, threshold=1e-4, flops=250e6)
    # fast pair
    sim1, _, hosts1 = make_world(2)
    fast = SynchronousEngine(
        sim1, [hosts1[1], hosts1[1]], app
    )  # both on speed-1.2 host
    r1 = sim1.run(until=fast.done)
    # one slow host drags the barrier
    sim2, net2, _ = make_world(0)
    slow_host = net2.new_host("slow", speed=0.25)
    fast_host = net2.new_host("fast", speed=2.0)
    slow = SynchronousEngine(sim2, [fast_host, slow_host], app)
    r2 = sim2.run(until=slow.done)
    assert r2.converged and r1.converged
    assert r2.converged_at > r1.converged_at


def test_sync_engine_validation():
    sim, net, hosts = make_world(2)
    app = make_geometric_app(num_tasks=3)
    with pytest.raises(ValueError):
        SynchronousEngine(sim, hosts, app)  # not enough hosts
    with pytest.raises(ValueError):
        SynchronousEngine(sim, hosts + hosts, app, checkpoint_frequency=0)


def test_sync_engine_max_supersteps_guard(monkeypatch):
    monkeypatch.setattr(sync_engine, "MAX_SUPERSTEPS", 5)
    sim, net, hosts = make_world(2)
    app = make_geometric_app(num_tasks=2, rate=0.999999, threshold=1e-15)
    engine = SynchronousEngine(sim, hosts, app)
    result = sim.run(until=engine.done)
    assert not result.converged
    assert result.supersteps == 5
