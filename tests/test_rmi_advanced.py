"""Advanced RMI scenarios: multiple exports, nested calls, generator
oneways, stress multiplexing."""

import pytest

from repro.des import Simulator
from repro.errors import RemoteError
from repro.net import Network, UniformLinkModel
from repro.rmi import RemoteObject, RmiRuntime, remote


class Adder(RemoteObject):
    @remote
    def add(self, a, b):
        return a + b


class Doubler(RemoteObject):
    @remote
    def double(self, x):
        return 2 * x


class Forwarder(RemoteObject):
    """A service whose handler remotely calls ANOTHER service (nested RMI,
    like a Super-Peer forwarding a reservation)."""

    def __init__(self, runtime, downstream_stub):
        self.runtime = runtime
        self.downstream = downstream_stub

    @remote
    def relay_double(self, x):
        result = yield self.runtime.call(self.downstream, "double", x)
        return ("relayed", result)


class SlowNotepad(RemoteObject):
    def __init__(self, sim):
        self.sim = sim
        self.notes = []

    @remote
    def slow_note(self, tag):
        yield self.sim.timeout(0.5)
        self.notes.append((self.sim.now, tag))


def make_world(n_hosts=3):
    sim = Simulator()
    net = Network(sim, link_model=UniformLinkModel(latency=1e-4, bandwidth=1e9))
    hosts = [net.new_host(f"h{i}") for i in range(n_hosts)]
    return sim, net, hosts


def test_multiple_objects_on_one_runtime():
    sim, net, (ha, hb, _) = make_world()
    server = RmiRuntime(net, hb, 5000)
    client = RmiRuntime(net, ha, 5000)
    add_stub = server.serve(Adder(), "adder")
    dbl_stub = server.serve(Doubler(), "doubler")

    def script(env):
        a = yield client.call(add_stub, "add", 2, 3)
        d = yield client.call(dbl_stub, "double", 21)
        # calling the wrong method on the right object still fails
        try:
            yield client.call(add_stub, "double", 1)
        except RemoteError:
            pass
        return a, d

    p = sim.process(script(sim))
    sim.run(until=p)
    assert p.value == (5, 42)


def test_nested_remote_calls_across_three_hosts():
    sim, net, (ha, hb, hc) = make_world()
    backend = RmiRuntime(net, hc, 5000, name="backend")
    middle = RmiRuntime(net, hb, 5000, name="middle")
    client = RmiRuntime(net, ha, 5000, name="client")
    dbl_stub = backend.serve(Doubler(), "doubler")
    fwd_stub = middle.serve(Forwarder(middle, dbl_stub), "forwarder")

    def script(env):
        return (yield client.call(fwd_stub, "relay_double", 8))

    p = sim.process(script(sim))
    sim.run(until=p)
    assert p.value == ("relayed", 16)


def test_nested_call_failure_propagates_to_origin():
    sim, net, (ha, hb, hc) = make_world()
    backend = RmiRuntime(net, hc, 5000)
    middle = RmiRuntime(net, hb, 5000, call_timeout=1.0)
    client = RmiRuntime(net, ha, 5000, call_timeout=5.0)
    dbl_stub = backend.serve(Doubler(), "doubler")
    fwd_stub = middle.serve(Forwarder(middle, dbl_stub), "forwarder")
    hc.fail()  # the backend is gone

    def script(env):
        try:
            yield client.call(fwd_stub, "relay_double", 8)
        except RemoteError:
            return ("failed-through", env.now)

    p = sim.process(script(sim))
    sim.run(until=p)
    kind, t = p.value
    assert kind == "failed-through"
    assert t == pytest.approx(1.0, abs=0.1)  # the middle tier's timeout


def test_generator_oneway_runs_to_completion():
    sim, net, (ha, hb, _) = make_world()
    server = RmiRuntime(net, hb, 5000)
    client = RmiRuntime(net, ha, 5000)
    pad = SlowNotepad(sim)
    stub = server.serve(pad, "pad")
    client.oneway(stub, "slow_note", "async-side-effect")
    sim.run(until=2.0)
    assert len(pad.notes) == 1
    assert pad.notes[0][0] == pytest.approx(0.5, abs=0.01)


def test_many_interleaved_calls_resolve_to_right_callers():
    sim, net, (ha, hb, _) = make_world()
    server = RmiRuntime(net, hb, 5000)
    client = RmiRuntime(net, ha, 5000)
    stub = server.serve(Adder(), "adder")
    results = {}

    def caller(env, k):
        # stagger and interleave 30 calls
        yield env.timeout(0.001 * (k % 7))
        value = yield client.call(stub, "add", k, 1000)
        results[k] = value

    for k in range(30):
        sim.process(caller(sim, k))
    sim.run()
    assert results == {k: k + 1000 for k in range(30)}
    assert server.served == 30
