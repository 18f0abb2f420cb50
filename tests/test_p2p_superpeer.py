"""Tests for the Super-Peer: registration, heartbeats, eviction, reservation
with forwarding (paper §5.1–§5.3, Figures 1, 2, 4)."""

import pytest

from repro.des import Simulator
from repro.net import Network, UniformLinkModel
from repro.p2p import P2PConfig, SuperPeer
from repro.p2p.superpeer import SUPERPEER_OBJECT
from repro.rmi import RmiRuntime, Stub
from repro.net.address import Address
from repro.obs import Tracer


CFG = P2PConfig(heartbeat_period=0.5, heartbeat_timeout=2.0, monitor_period=0.5)


def make_superpeers(n=2, cfg=CFG):
    tracer = Tracer()
    sim = Simulator(tracer=tracer)
    net = Network(sim, link_model=UniformLinkModel(latency=1e-4, bandwidth=1e9))
    sps = []
    for i in range(n):
        host = net.new_host(f"sp-host-{i}")
        sps.append(SuperPeer(net, host, sp_id=f"SP{i}", config=cfg))
    stubs = [sp.stub for sp in sps]
    for sp in sps:
        sp.link(stubs)
    return sim, net, sps, tracer


def make_client(net, name="client", port=4100):
    host = net.new_host(name)
    return RmiRuntime(net, host, port, name=name)


def dummy_stub(i):
    return Stub("daemon", Address(f"fake-daemon-{i}", 4100))


def test_register_and_count():
    sim, net, (sp0, sp1), tracer = make_superpeers()
    client = make_client(net)

    def script(env):
        ok = yield client.call(sp0.stub, "register_daemon", "d0", dummy_stub(0))
        assert ok
        count = yield client.call(sp0.stub, "registered_count")
        return count

    p = sim.process(script(sim))
    sim.run(until=p)
    assert p.value == 1
    assert tracer.count("p2p", "register") == 1


def test_linking_excludes_self():
    sim, net, (sp0, sp1), tracer = make_superpeers()
    assert len(sp0.neighbour_stubs) == 1
    assert sp0.neighbour_stubs[0].address == sp1.stub.address


def test_heartbeat_keeps_daemon_registered():
    sim, net, (sp0, sp1), tracer = make_superpeers()
    client = make_client(net)

    def script(env):
        yield client.call(sp0.stub, "register_daemon", "d0", dummy_stub(0))
        for _ in range(10):
            yield env.timeout(0.5)
            known = yield client.call(sp0.stub, "heartbeat", "d0")
            assert known
        count = yield client.call(sp0.stub, "registered_count")
        return count

    p = sim.process(script(sim))
    sim.run(until=p)
    assert p.value == 1
    assert sp0.evictions == 0


def test_silent_daemon_evicted_after_timeout():
    sim, net, (sp0, sp1), tracer = make_superpeers()
    client = make_client(net)

    def script(env):
        yield client.call(sp0.stub, "register_daemon", "d0", dummy_stub(0))
        yield env.timeout(5.0)  # never heartbeat
        count = yield client.call(sp0.stub, "registered_count")
        return count

    p = sim.process(script(sim))
    sim.run(until=p)
    assert p.value == 0
    assert sp0.evictions == 1
    assert tracer.count("p2p", "evict") == 1


def test_heartbeat_from_unknown_daemon_returns_false():
    sim, net, (sp0, sp1), tracer = make_superpeers()
    client = make_client(net)

    def script(env):
        known = yield client.call(sp0.stub, "heartbeat", "ghost")
        return known

    p = sim.process(script(sim))
    sim.run(until=p)
    assert p.value is False


def test_unregister_daemon():
    sim, net, (sp0, sp1), tracer = make_superpeers()
    client = make_client(net)

    def script(env):
        yield client.call(sp0.stub, "register_daemon", "d0", dummy_stub(0))
        removed = yield client.call(sp0.stub, "unregister_daemon", "d0")
        missing = yield client.call(sp0.stub, "unregister_daemon", "d0")
        count = yield client.call(sp0.stub, "registered_count")
        return removed, missing, count

    p = sim.process(script(sim))
    sim.run(until=p)
    assert p.value == (True, False, 0)


def test_reserve_local_removes_from_register():
    sim, net, (sp0, sp1), tracer = make_superpeers()
    client = make_client(net)

    def script(env):
        for i in range(3):
            yield client.call(sp0.stub, "register_daemon", f"d{i}", dummy_stub(i))
        picked = yield client.call(sp0.stub, "reserve_local", 2)
        count = yield client.call(sp0.stub, "registered_count")
        return picked, count

    p = sim.process(script(sim))
    sim.run(until=p)
    picked, count = p.value
    assert len(picked) == 2 and count == 1
    assert picked[0][0] == "d0"  # deterministic order


def test_reserve_forwards_to_neighbour():
    """Figure 2: SP1 has two daemons, the third is reserved on SP2."""
    sim, net, (sp0, sp1), tracer = make_superpeers()
    client = make_client(net)

    def script(env):
        yield client.call(sp0.stub, "register_daemon", "a0", dummy_stub(0))
        yield client.call(sp0.stub, "register_daemon", "a1", dummy_stub(1))
        yield client.call(sp1.stub, "register_daemon", "b0", dummy_stub(2))
        picked = yield client.call(sp0.stub, "reserve", 3, ())
        return picked

    p = sim.process(script(sim))
    sim.run(until=p)
    ids = sorted(d for d, _ in p.value)
    assert ids == ["a0", "a1", "b0"]
    assert sp0.forwarded_requests >= 1
    # both registers drained
    assert len(sp0.register) == 0 and len(sp1.register) == 0


def test_reserve_returns_short_when_network_exhausted():
    sim, net, (sp0, sp1), tracer = make_superpeers()
    client = make_client(net)

    def script(env):
        yield client.call(sp0.stub, "register_daemon", "a0", dummy_stub(0))
        picked = yield client.call(sp0.stub, "reserve", 5, ())
        return picked

    p = sim.process(script(sim))
    sim.run(until=p)
    assert len(p.value) == 1


def test_reserve_visited_prevents_forwarding_loops():
    sim, net, sps, tracer = make_superpeers(3)
    client = make_client(net)

    def script(env):
        picked = yield client.call(sps[0].stub, "reserve", 4, ())
        return picked

    p = sim.process(script(sim))
    sim.run(until=p)
    assert p.value == []  # nothing anywhere; returns without livelock
    sim.run(until=sim.now + 30)  # no runaway forwarding processes


def test_reserve_survives_dead_neighbour():
    sim, net, (sp0, sp1), tracer = make_superpeers()
    client = make_client(net)
    sp1.host.fail()

    def script(env):
        yield client.call(sp0.stub, "register_daemon", "a0", dummy_stub(0))
        picked = yield client.call(
            sp0.stub, "reserve", 2, (), timeout=30.0
        )
        return picked

    p = sim.process(script(sim))
    sim.run(until=p)
    assert len(p.value) == 1  # the local one; dead neighbour skipped


def test_reserve_zero_or_negative_count():
    sim, net, (sp0, sp1), tracer = make_superpeers()
    assert sp0.reserve_local(0) == []
    assert sp0.reserve_local(-3) == []
