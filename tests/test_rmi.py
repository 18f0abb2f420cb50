"""Tests for the RMI layer: stubs, calls, oneways, failures, timeouts."""

import pytest

from repro.des import Simulator
from repro.errors import NetworkError, RemoteError
from repro.net import Address, Network, UniformLinkModel
from repro.obs import Tracer
from repro.rmi import RemoteObject, RmiRuntime, Stub, remote
from repro.rmi.invocation import remote_method_table

from tests.helpers import select


class Calculator(RemoteObject):
    """Test service with plain, generator, stateful and failing methods."""

    def __init__(self, host=None):
        self.host = host
        self.history = []

    @remote
    def add(self, a, b):
        self.history.append(("add", a, b))
        return a + b

    @remote
    def slow_square(self, x):
        # generator handler: charges simulated compute time before replying
        yield self.host.compute(self.host.speed * 250e6)  # exactly 1 second
        return x * x

    @remote
    def boom(self):
        raise ValueError("application error")

    @remote
    def slow_boom(self):
        yield self.host.sim.timeout(0.5)
        raise ValueError("late application error")

    @remote
    def note(self, tag):
        self.history.append(("note", tag))

    def private_helper(self):  # not @remote
        return "secret"


def make_world(n_hosts=2, latency=1e-3):
    sim = Simulator()
    net = Network(sim, link_model=UniformLinkModel(latency=latency))
    hosts = [net.new_host(f"h{i}") for i in range(n_hosts)]
    return sim, net, hosts


def test_basic_call_roundtrip():
    sim, net, (ha, hb) = make_world()
    server = RmiRuntime(net, hb, 5000, name="server")
    client = RmiRuntime(net, ha, 5000, name="client")
    stub = server.serve(Calculator(), "calc")

    def caller(env):
        result = yield client.call(stub, "add", 2, 3)
        return (result, env.now)

    p = sim.process(caller(sim))
    sim.run()
    value, t = p.value
    assert value == 5
    assert t >= 2e-3  # two link traversals
    assert server.served == 1 and client.calls_sent == 1


def test_generator_handler_charges_compute_time():
    sim, net, (ha, hb) = make_world()
    server = RmiRuntime(net, hb, 5000)
    client = RmiRuntime(net, ha, 5000)
    stub = server.serve(Calculator(host=hb), "calc")

    def caller(env):
        result = yield client.call(stub, "slow_square", 7)
        return (result, env.now)

    p = sim.process(caller(sim))
    sim.run()
    value, t = p.value
    assert value == 49
    assert t == pytest.approx(1.0, abs=0.01)


def test_application_exception_propagates():
    sim, net, (ha, hb) = make_world()
    server = RmiRuntime(net, hb, 5000)
    client = RmiRuntime(net, ha, 5000)
    stub = server.serve(Calculator(), "calc")

    def caller(env):
        try:
            yield client.call(stub, "boom")
        except ValueError as e:
            return f"caught:{e}"

    p = sim.process(caller(sim))
    sim.run()
    assert p.value == "caught:application error"


def test_generator_handler_exception_propagates():
    sim, net, (ha, hb) = make_world()
    server = RmiRuntime(net, hb, 5000)
    client = RmiRuntime(net, ha, 5000)
    stub = server.serve(Calculator(host=hb), "calc")

    def caller(env):
        try:
            yield client.call(stub, "slow_boom")
        except ValueError as e:
            return f"caught:{e}"

    p = sim.process(caller(sim))
    sim.run()
    assert p.value == "caught:late application error"


def test_call_to_dead_host_times_out_with_remote_error():
    sim, net, (ha, hb) = make_world()
    server = RmiRuntime(net, hb, 5000)
    client = RmiRuntime(net, ha, 5000, call_timeout=2.0)
    stub = server.serve(Calculator(), "calc")
    hb.fail()

    def caller(env):
        try:
            yield client.call(stub, "add", 1, 1)
        except RemoteError:
            return ("remote-error", env.now)

    p = sim.process(caller(sim))
    sim.run()
    kind, t = p.value
    assert kind == "remote-error"
    assert t == pytest.approx(2.0)


def test_call_to_unexported_object_fails():
    sim, net, (ha, hb) = make_world()
    RmiRuntime(net, hb, 5000)
    client = RmiRuntime(net, ha, 5000)
    ghost = Stub("nothing", Address("h1", 5000))

    def caller(env):
        try:
            yield client.call(ghost, "add", 1, 1)
        except RemoteError as e:
            return str(e)

    p = sim.process(caller(sim))
    sim.run()
    assert "no object" in p.value


def test_non_remote_method_rejected():
    sim, net, (ha, hb) = make_world()
    server = RmiRuntime(net, hb, 5000)
    client = RmiRuntime(net, ha, 5000)
    stub = server.serve(Calculator(), "calc")

    def caller(env):
        for method in ["private_helper", "history", "no_such"]:
            try:
                yield client.call(stub, method)
                return f"{method} not rejected"
            except RemoteError:
                pass
        return "all-rejected"

    p = sim.process(caller(sim))
    sim.run()
    assert p.value == "all-rejected"


def test_oneway_executes_without_reply():
    sim, net, (ha, hb) = make_world()
    server = RmiRuntime(net, hb, 5000)
    client = RmiRuntime(net, ha, 5000)
    calc = Calculator()
    stub = server.serve(calc, "calc")
    client.oneway(stub, "note", "ping")
    client.oneway(stub, "note", "pong")
    sim.run()
    assert calc.history == [("note", "ping"), ("note", "pong")]
    assert client.oneways_sent == 2
    assert server.served == 2  # one served count, whatever the transport


def test_oneway_to_dead_peer_lost_silently():
    sim, net, (ha, hb) = make_world()
    server = RmiRuntime(net, hb, 5000)
    client = RmiRuntime(net, ha, 5000)
    calc = Calculator()
    stub = server.serve(calc, "calc")
    hb.fail()
    client.oneway(stub, "note", "into-the-void")
    sim.run()  # must not raise
    assert calc.history == []


def test_oneway_error_counted_not_raised():
    sim, net, (ha, hb) = make_world()
    sim.tracer = Tracer()
    server = RmiRuntime(net, hb, 5000)
    client = RmiRuntime(net, ha, 5000)
    stub = server.serve(Calculator(), "calc")
    client.oneway(stub, "boom")
    sim.run()
    assert server.oneway_errors == 1 and server.served == 0
    assert sim.tracer.count("rmi", "rmi_oneway_error") == 1


def test_server_dies_mid_generator_handler_caller_times_out():
    sim, net, (ha, hb) = make_world()
    server = RmiRuntime(net, hb, 5000)
    client = RmiRuntime(net, ha, 5000, call_timeout=3.0)
    stub = server.serve(Calculator(host=hb), "calc")

    def killer(env):
        yield env.timeout(0.5)  # mid slow_square (takes 1s)
        hb.fail()

    def caller(env):
        try:
            yield client.call(stub, "slow_square", 3)
        except RemoteError:
            return ("timed-out", env.now)

    sim.process(killer(sim))
    p = sim.process(caller(sim))
    sim.run()
    assert p.value == ("timed-out", pytest.approx(3.0))


def test_late_reply_after_timeout_is_dropped():
    sim, net, (ha, hb) = make_world(latency=1.0)  # very slow link
    server = RmiRuntime(net, hb, 5000)
    client = RmiRuntime(net, ha, 5000, call_timeout=1.5)  # < 2s round trip
    stub = server.serve(Calculator(), "calc")

    def caller(env):
        try:
            yield client.call(stub, "add", 1, 1)
        except RemoteError:
            pass
        yield env.timeout(5)  # let the late reply arrive
        return "survived"

    p = sim.process(caller(sim))
    sim.run()
    assert p.value == "survived"
    assert not client._pending  # cleaned up


def test_unanswered_call_fails_at_its_deadline_and_spawns_nothing(monkeypatch):
    """The deadline is a kernel timer, not a watchdog process: the call
    fails at exactly ``now + timeout``, and its reply, arriving later, is
    dropped."""
    sim, net, (ha, hb) = make_world(latency=1.0)  # 2 s round trip
    sim.tracer = Tracer()
    server = RmiRuntime(net, hb, 5000)
    client = RmiRuntime(net, ha, 5000, name="client")
    stub = server.serve(Calculator(), "calc")
    spawned = []
    process = sim.process
    monkeypatch.setattr(sim, "process", lambda *a, **kw: spawned.append(a)
                        or process(*a, **kw))
    outcomes = []

    def place_call():
        ev = client.call(stub, "add", 1, 1, timeout=1.5)
        ev.callbacks.append(lambda e: outcomes.append((sim.now, e.ok, e.value)))

    sim.call_later(0.25, place_call)
    sim.run()
    [(when, ok, error)] = outcomes
    assert when == 0.25 + 1.5 and not ok
    assert isinstance(error, RemoteError)
    assert spawned == []
    assert server.served == 1  # the server answered, too late
    assert not client._pending
    [timeout] = select(sim.tracer, "rmi", "error", entity="client")
    assert (timeout.time, timeout.attrs["reason"]) == (1.75, "timeout")


def test_per_call_timeout_override():
    sim, net, (ha, hb) = make_world()
    server = RmiRuntime(net, hb, 5000)
    client = RmiRuntime(net, ha, 5000, call_timeout=100.0)
    stub = server.serve(Calculator(), "calc")
    hb.fail()

    def caller(env):
        try:
            yield client.call(stub, "add", 1, 1, timeout=0.5)
        except RemoteError:
            return env.now

    p = sim.process(caller(sim))
    sim.run()
    assert p.value == pytest.approx(0.5)


def test_bound_stub_interface():
    sim, net, (ha, hb) = make_world()
    server = RmiRuntime(net, hb, 5000)
    client = RmiRuntime(net, ha, 5000)
    calc = Calculator()
    stub = server.serve(calc, "calc")
    bound = stub.bind(client)

    def caller(env):
        r = yield bound.call("add", 10, 20)
        bound.oneway("note", "done")
        return r

    p = sim.process(caller(sim))
    sim.run()
    assert p.value == 30
    assert ("note", "done") in calc.history


def test_duplicate_export_rejected():
    sim, net, (ha, hb) = make_world()
    server = RmiRuntime(net, hb, 5000)
    server.serve(Calculator(), "calc")
    with pytest.raises(NetworkError):
        server.serve(Calculator(), "calc")


def test_stub_for_and_alive():
    sim, net, (ha, hb) = make_world()
    server = RmiRuntime(net, hb, 5000, name="srv")
    assert server.serve(Calculator(), "calc").address == Address("h1", 5000)
    assert server.alive
    hb.fail()
    assert not server.alive


def test_stub_validation_and_repr():
    with pytest.raises(ValueError):
        Stub("", Address("h", 1))
    s = Stub("calc", Address("h", 1))
    assert str(s) == "calc@h:1"


def test_reliable_traffic_exempt_from_random_loss():
    """Calls/replies (TCP-like) and reliable oneways survive a network that
    drops every unreliable message; plain oneways all vanish."""
    from repro.net import Network, UniformLinkModel
    from repro.util.rng import RngTree

    sim = Simulator()
    net = Network(
        sim,
        link_model=UniformLinkModel(latency=1e-4),
        loss_rate=0.999999,  # effectively total loss for unreliable traffic
        rng=RngTree(0).child("loss"),
    )
    ha, hb = net.new_host("h0"), net.new_host("h1")
    server = RmiRuntime(net, hb, 5000)
    client = RmiRuntime(net, ha, 5000)
    calc = Calculator()
    stub = server.serve(calc, "calc")

    def caller(env):
        result = yield client.call(stub, "add", 1, 2)  # reliable both ways
        client.oneway(stub, "note", "lossy")           # dropped
        client.oneway(stub, "note", "safe", reliable=True)
        yield env.timeout(1.0)
        return result

    p = sim.process(caller(sim))
    sim.run(until=p)
    assert p.value == 3
    notes = [entry[1] for entry in calc.history if entry[0] == "note"]
    assert notes == ["safe"]
    assert net.dropped_loss >= 1


def test_exported_methods_lists_only_remote():
    exported = remote_method_table(Calculator)
    assert "add" in exported and "slow_square" in exported
    assert "private_helper" not in exported
    assert "history" not in exported  # attributes are not methods


def test_is_remote_marker():
    from repro.rmi import is_remote, remote

    def plain():
        pass

    @remote
    def marked():
        pass

    assert not is_remote(plain)
    assert is_remote(marked)


def test_concurrent_calls_multiplex_on_one_runtime():
    sim, net, (ha, hb) = make_world()
    server = RmiRuntime(net, hb, 5000)
    client = RmiRuntime(net, ha, 5000)
    stub = server.serve(Calculator(host=hb), "calc")
    results = []

    def caller(env, x):
        r = yield client.call(stub, "add", x, x)
        results.append(r)

    for x in range(8):
        sim.process(caller(sim, x))
    sim.run()
    assert sorted(results) == [0, 2, 4, 6, 8, 10, 12, 14]
