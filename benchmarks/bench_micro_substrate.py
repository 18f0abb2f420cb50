"""M1 — substrate micro-benchmarks (true pytest-benchmark loops).

These are not from the paper; they characterise the simulator itself so
experiment wall-times are explainable: DES event throughput, RMI round-trip
cost, CG solve cost, message-size accounting.
"""

import numpy as np
import pytest

from repro.des import Simulator, Store
from repro.net import Network, UniformLinkModel
from repro.numerics import Poisson2D, conjugate_gradient
from repro.rmi import RemoteObject, RmiRuntime, remote
from repro.util.serialization import measured_size


@pytest.mark.benchmark(group="micro")
def test_des_event_throughput(benchmark):
    def run():
        sim = Simulator()

        def ticker(env):
            for _ in range(10_000):
                yield env.timeout(1.0)

        sim.process(ticker(sim))
        sim.run()
        return sim.event_count

    events = benchmark(run)
    assert events >= 10_000


@pytest.mark.benchmark(group="micro")
def test_des_store_handoff_throughput(benchmark):
    def run():
        sim = Simulator()
        store = Store(sim)
        got = []

        def producer(env):
            for i in range(5_000):
                store.put(i)
                yield env.timeout(0.001)

        def consumer(env):
            for _ in range(5_000):
                item = yield store.get()
                got.append(item)

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        return len(got)

    assert benchmark(run) == 5_000


class Echo(RemoteObject):
    @remote
    def echo(self, x):
        return x


@pytest.mark.benchmark(group="micro")
def test_rmi_roundtrip_cost(benchmark):
    def run():
        sim = Simulator()
        net = Network(sim, link_model=UniformLinkModel(latency=1e-4))
        a, b = net.new_host("a"), net.new_host("b")
        server = RmiRuntime(net, b, 5000)
        client = RmiRuntime(net, a, 5000)
        stub = server.serve(Echo(), "echo")

        def caller(env):
            for i in range(500):
                yield client.call(stub, "echo", i)

        p = sim.process(caller(sim))
        sim.run(until=p)
        return server.served

    assert benchmark(run) == 500


@pytest.mark.benchmark(group="micro")
def test_cg_solve_cost(benchmark):
    prob = Poisson2D.heat_plate(48)

    def run():
        return conjugate_gradient(prob.A, prob.b, tol=1e-8)

    result = benchmark(run)
    assert result.converged


@pytest.mark.benchmark(group="micro")
def test_message_size_accounting_cost(benchmark):
    payload = {"x": np.zeros(4096), "meta": [1, 2.0, "three"] * 10}
    size = benchmark(measured_size, payload)
    assert size > 4096 * 8
