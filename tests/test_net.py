"""Tests for the network substrate: hosts, links, delivery, loss, partitions."""

import pytest

from repro.des import Simulator, Interrupt
from repro.errors import HostDownError, NetworkError
from repro.net import (
    Address,
    Host,
    HeterogeneousLinkModel,
    Network,
    UniformLinkModel,
    build_testbed,
)
from repro.net.host import BASE_FLOPS
from repro.net.link import FAST_ETHERNET, GIGABIT_ETHERNET
from repro.util.rng import RngTree


def _ignore(payload):
    """An endpoint handler for tests that only count deliveries."""


# --------------------------------------------------------------------- address


def test_address_validation():
    a = Address("h1", 5000)
    assert str(a) == "h1:5000"
    with pytest.raises(ValueError):
        Address("", 80)
    with pytest.raises(ValueError):
        Address("h", 0)
    with pytest.raises(ValueError):
        Address("h", 70000)


def test_address_hashable_and_ordered():
    assert Address("a", 1) == Address("a", 1)
    assert len({Address("a", 1), Address("a", 1), Address("b", 1)}) == 2
    assert Address("a", 1) < Address("a", 2) < Address("b", 1)


# ------------------------------------------------------------------------ host


def test_host_compute_scales_with_speed():
    sim = Simulator()
    slow = Host(sim, "slow", speed=1.0)
    fast = Host(sim, "fast", speed=2.0)
    done = {}

    def work(env, host, name):
        yield host.compute(BASE_FLOPS)  # 1 second on a speed-1 machine
        done[name] = env.now

    sim.process(work(sim, slow, "slow"))
    sim.process(work(sim, fast, "fast"))
    sim.run()
    assert done["slow"] == pytest.approx(1.0)
    assert done["fast"] == pytest.approx(0.5)


def test_host_invalid_speed_and_negative_flops():
    sim = Simulator()
    with pytest.raises(ValueError):
        Host(sim, "h", speed=0)
    h = Host(sim, "h", speed=1)
    with pytest.raises(ValueError):
        h.compute(-5)


def test_host_fail_interrupts_processes():
    sim = Simulator()
    host = Host(sim, "h")
    outcome = []

    def worker(env):
        try:
            yield env.timeout(100)
            outcome.append("finished")
        except Interrupt as i:
            outcome.append(("killed", i.cause, env.now))

    host.spawn(worker(sim))

    def killer(env):
        yield env.timeout(5)
        host.fail(cause="churn")

    sim.process(killer(sim))
    sim.run()
    assert outcome == [("killed", "churn", 5.0)]
    assert not host.online
    assert host.fail_count == 1


def test_host_fail_closes_endpoints():
    sim = Simulator()
    host = Host(sim, "h")
    ep = host.open_endpoint(4000, _ignore)
    host.fail()
    assert ep.closed
    assert 4000 not in host.endpoints


def test_host_holds_only_live_processes():
    """A finished process leaves its host's registry: a long-lived host
    that spawns many short processes keeps only the ones still running."""
    sim = Simulator()
    host = Host(sim, "h")

    def short(env):
        yield env.timeout(0.001)

    def spawner(env):
        for _ in range(10_000):
            host.spawn(short(env))
            yield env.timeout(0.01)

    sim.process(spawner(sim))
    sim.run()
    assert len(host._processes) <= 2

    def long(env):
        yield env.timeout(100)

    survivor = host.spawn(long(sim))
    sim.run(until=sim.now + 1)
    assert list(host._processes) == [survivor]


def test_host_fail_idempotent_and_recover_hooks():
    sim = Simulator()
    host = Host(sim, "h")
    boots = []
    host.on_recover(lambda h: boots.append(h.name))
    host.fail()
    host.fail()  # no-op
    assert host.fail_count == 1
    host.recover()
    host.recover()  # no-op
    assert host.recover_count == 1
    assert boots == ["h"]


def test_host_offline_operations_rejected():
    sim = Simulator()
    host = Host(sim, "h")
    host.fail()
    with pytest.raises(HostDownError):
        host.open_endpoint(1234, _ignore)
    with pytest.raises(HostDownError):
        host.compute(10)
    with pytest.raises(HostDownError):
        host.spawn(iter(()))


def test_endpoint_port_collision():
    sim = Simulator()
    host = Host(sim, "h")
    host.open_endpoint(1000, _ignore)
    with pytest.raises(NetworkError):
        host.open_endpoint(1000, _ignore)


def test_endpoint_rebind_after_close():
    sim = Simulator()
    host = Host(sim, "h")
    ep = host.open_endpoint(1000, _ignore)
    ep.close()
    ep2 = host.open_endpoint(1000, _ignore)
    assert not ep2.closed


# ------------------------------------------------------------------------ links


def test_uniform_link_delay_formula():
    m = UniformLinkModel(latency=1e-3)
    sim = Simulator()
    a, b = Host(sim, "a"), Host(sim, "b")
    assert m.delay(a, b, 125_000_000) == pytest.approx(1e-3 + 1.0)
    assert m.delay(a, a, 10) < 1e-4  # loop-back is nearly free


def test_uniform_link_validation():
    with pytest.raises(ValueError):
        UniformLinkModel(latency=-1)
    with pytest.raises(ValueError):
        HeterogeneousLinkModel(jitter=0.1)  # jitter without rng


def test_heterogeneous_link_paced_by_slower_class():
    sim = Simulator()
    m = HeterogeneousLinkModel()
    fast = Host(sim, "f", tags=(GIGABIT_ETHERNET.name,))
    slow = Host(sim, "s", tags=(FAST_ETHERNET.name,))
    nbytes = 1_250_000
    d_ff = m.delay(fast, Host(sim, "f2", tags=(GIGABIT_ETHERNET.name,)), nbytes)
    d_fs = m.delay(fast, slow, nbytes)
    # mixed pair is paced by the 100 Mbps side: ~10x the transfer time
    assert d_fs > 5 * d_ff
    assert m.class_of(Host(sim, "untagged")) is m.default_class


def test_heterogeneous_link_jitter_bounded():
    rng = RngTree(0)
    m = HeterogeneousLinkModel(jitter=0.1, rng=rng)
    sim = Simulator()
    a = Host(sim, "a", tags=(GIGABIT_ETHERNET.name,))
    b = Host(sim, "b", tags=(GIGABIT_ETHERNET.name,))
    base = HeterogeneousLinkModel().delay(a, b, 1000)
    for _ in range(50):
        d = m.delay(a, b, 1000)
        assert 0.9 * base - 1e-12 <= d <= 1.1 * base + 1e-12


# --------------------------------------------------------------------- network


def _net_pair():
    sim = Simulator()
    net = Network(sim, link_model=UniformLinkModel(latency=1e-3))
    a = net.new_host("a")
    b = net.new_host("b")
    return sim, net, a, b


def test_network_roundtrip_delivery():
    sim, net, a, b = _net_pair()
    received = []
    b.open_endpoint(4000, lambda payload: received.append((sim.now, payload)))
    net.send(Address("a", 1), Address("b", 4000), {"hello": "world"})
    sim.run()
    assert len(received) == 1
    t, payload = received[0]
    assert payload == {"hello": "world"}
    assert t >= 1e-3  # at least the latency
    assert net.delivered == 1 and net.sent == 1


def test_network_send_to_dead_host_drops_silently():
    sim, net, a, b = _net_pair()
    b.open_endpoint(4000, _ignore)
    b.fail()
    net.send(Address("a", 1), Address("b", 4000), "lost")
    sim.run()
    assert net.delivered == 0
    assert net.dropped_dead == 1


def test_network_send_to_unknown_host_drops():
    sim, net, a, b = _net_pair()
    net.send(Address("a", 1), Address("ghost", 4000), "x")
    sim.run()
    assert net.dropped_dead == 1


def test_network_send_to_missing_endpoint_drops():
    sim, net, a, b = _net_pair()
    net.send(Address("a", 1), Address("b", 9999), "x")
    sim.run()
    assert net.dropped_dead == 1 and net.delivered == 0


def test_network_host_dies_mid_flight():
    sim, net, a, b = _net_pair()
    b.open_endpoint(4000, _ignore)

    def killer(env):
        yield env.timeout(0.0005)  # during the 1ms flight
        b.fail()

    sim.process(killer(sim))
    net.send(Address("a", 1), Address("b", 4000), "x")
    sim.run()
    assert net.delivered == 0 and net.dropped_dead == 1


def test_network_source_dead_cannot_send():
    sim, net, a, b = _net_pair()
    b.open_endpoint(4000, _ignore)
    a.fail()
    net.send(Address("a", 1), Address("b", 4000), "x")
    sim.run()
    assert net.delivered == 0 and net.dropped_dead == 1


def test_network_random_loss():
    sim = Simulator()
    net = Network(
        sim,
        link_model=UniformLinkModel(latency=1e-6),
        loss_rate=0.5,
        rng=RngTree(42).child("loss"),
    )
    a, b = net.new_host("a"), net.new_host("b")
    received = []
    b.open_endpoint(4000, received.append)
    for i in range(200):
        net.send(Address("a", 1), Address("b", 4000), i)
    sim.run()
    assert net.dropped_loss > 40
    assert net.delivered > 40
    assert net.dropped_loss + net.delivered == 200
    assert len(received) == net.delivered


def test_network_loss_rate_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Network(sim, loss_rate=1.5)
    with pytest.raises(ValueError):
        Network(sim, loss_rate=0.1)  # no rng


def test_network_partition_blocks_cross_group():
    sim, net, a, b = _net_pair()
    c = net.new_host("c")
    b.open_endpoint(4000, _ignore)
    received = []
    c.open_endpoint(4000, received.append)
    net.partition([["a", "b"], ["c"]])
    net.send(Address("a", 1), Address("b", 4000), "same-side")
    net.send(Address("a", 1), Address("c", 4000), "cross")
    sim.run()
    assert net.delivered == 1
    assert net.dropped_partition == 1
    net.heal_partition()
    net.send(Address("a", 1), Address("c", 4000), "after-heal")
    sim.run()
    assert net.delivered == 2
    assert received == ["after-heal"]


def test_network_partition_validation():
    sim, net, a, b = _net_pair()
    with pytest.raises(NetworkError):
        net.partition([["a"], ["a"]])
    with pytest.raises(NetworkError):
        net.partition([["nope"]])


def test_network_duplicate_host_rejected():
    sim, net, a, b = _net_pair()
    with pytest.raises(NetworkError):
        net.new_host("a")
    with pytest.raises(NetworkError):
        net.host("missing")


def test_network_stats_bytes_accounting():
    sim, net, a, b = _net_pair()
    b.open_endpoint(4000, _ignore)
    net.send(Address("a", 1), Address("b", 4000), b"x" * 1000)
    sim.run()
    st = net.stats()
    assert st["bytes_sent"] >= 1000
    assert st["bytes_delivered"] == st["bytes_sent"]


# --------------------------------------------------------------------- testbed


def test_build_testbed_population_shape():
    sim = Simulator()
    tb = build_testbed(sim, n_daemons=20, n_superpeers=3, rng=RngTree(1))
    assert len(tb.daemon_hosts) == 20
    assert len(tb.superpeer_hosts) == 3
    assert tb.spawner_host is not None
    assert tb.standby_host is None
    lo, hi = tb.speed_spread()
    assert 1.0 <= lo < hi <= 2.38 + 1e-9


def test_build_testbed_deterministic():
    tb1 = build_testbed(Simulator(), 30, rng=RngTree(9))
    tb2 = build_testbed(Simulator(), 30, rng=RngTree(9))
    assert [h.speed for h in tb1.daemon_hosts] == [h.speed for h in tb2.daemon_hosts]
    assert [h.tags for h in tb1.daemon_hosts] == [h.tags for h in tb2.daemon_hosts]


def test_build_testbed_homogeneous():
    tb = build_testbed(Simulator(), 10, homogeneous=True)
    assert all(h.speed == 1.0 for h in tb.daemon_hosts)


def test_build_testbed_network_mix():
    tb = build_testbed(Simulator(), 200, rng=RngTree(4))
    fast = sum(GIGABIT_ETHERNET.name in h.tags for h in tb.daemon_hosts)
    assert 60 < fast < 140  # roughly half


def test_build_testbed_validation():
    with pytest.raises(ValueError):
        build_testbed(Simulator(), 0)
    with pytest.raises(ValueError):
        build_testbed(Simulator(), 5, n_superpeers=0)
    with pytest.raises(ValueError):
        build_testbed(Simulator(), 5)  # heterogeneous without rng
