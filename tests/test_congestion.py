"""Tests for the shared-medium congestion model."""

import pytest

from repro.des import Simulator
from repro.errors import NetworkError
from repro.net import Address, Network, UniformLinkModel


def make_net(congestion=None):
    sim = Simulator()
    net = Network(
        sim,
        link_model=UniformLinkModel(latency=1e-3, bandwidth=1e9),
        congestion=congestion,
    )
    a, b = net.new_host("a"), net.new_host("b")
    arrivals = []
    b.open_endpoint(4000, lambda payload: arrivals.append((sim.now, payload)))
    return sim, net, arrivals


def test_no_congestion_by_default():
    sim, net, arrivals = make_net()
    for i in range(5):
        net.send(Address("a", 1), Address("b", 4000), i)
    sim.run(until=1.0)
    assert [i for _, i in arrivals] == [0, 1, 2, 3, 4]
    # all sent at t=0 with identical delay: identical arrival times
    times = [t for t, _ in arrivals]
    assert max(times) - min(times) < 1e-9
    assert net.peak_in_flight == 5


def test_congestion_slows_concurrent_transfers():
    sim, net, arrivals = make_net(congestion=lambda n: 1.0 + 1.0 * n)
    for i in range(4):
        net.send(Address("a", 1), Address("b", 4000), i)
    sim.run(until=1.0)
    assert len(arrivals) == 4
    times = [t for t, _ in arrivals]
    # message i sees i prior in-flight transfers: delays 1x, 2x, 3x, 4x
    # (small additive term: the payload's transfer time)
    assert times[0] == pytest.approx(1e-3, rel=1e-3)
    assert times[1] == pytest.approx(2e-3, rel=1e-3)
    assert times[3] == pytest.approx(4e-3, rel=1e-3)


def test_congestion_drains_between_bursts():
    sim, net, arrivals = make_net(congestion=lambda n: 1.0 + n)

    def bursts(env):
        net.send(Address("a", 1), Address("b", 4000), "x")
        yield env.timeout(0.5)  # first transfer long gone
        net.send(Address("a", 1), Address("b", 4000), "y")
        return env.now

    sim.process(bursts(sim))
    sim.run(until=1.0)
    assert [payload for _, payload in arrivals] == ["x", "y"]
    assert net.in_flight == 0
    assert net.peak_in_flight == 1  # never concurrent


def test_congestion_multiplier_below_one_rejected():
    sim, net, arrivals = make_net(congestion=lambda n: 0.5)
    with pytest.raises(NetworkError):
        net.send(Address("a", 1), Address("b", 4000), "x")
