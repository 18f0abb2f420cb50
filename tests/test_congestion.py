"""The network has no shared-medium congestion: concurrent transfers
take the link delay each, independently."""

from repro.des import Simulator
from repro.net import Address, Network, UniformLinkModel


def make_net():
    sim = Simulator()
    net = Network(sim, link_model=UniformLinkModel(latency=1e-3))
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
