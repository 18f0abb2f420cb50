"""Observability overhead guard (runs in the tier-1 suite).

The trace bus promises a *zero-overhead disabled path*: every hot call
site guards with ``if tracer.enabled:`` before building event kwargs, and
the default :data:`repro.obs.NULL_TRACER` makes that guard false.  These
tests pin the promise down:

- the guard checks themselves must account for <5% of the substrate
  workloads they protect (the ``bench_micro_substrate`` shapes: DES event
  dispatch and networked RMI traffic);
- a disabled run must never be slower than a traced run (catches a
  regression where attr-dict construction escapes the guard);
- the null tracer must record nothing at all.

Timing compares the guard's measured marginal per-check cost against the
measured per-event workload cost — a ratio of two in-process medians —
rather than two absolute wall-clocks, so the assertion is stable on loaded
machines.
"""

from __future__ import annotations

import time

import pytest

from repro.des import Simulator
from repro.net import Network, UniformLinkModel
from repro.obs import NULL_TRACER, Tracer
from repro.rmi import RemoteObject, RmiRuntime, remote

REPEATS = 5
OVERHEAD_BUDGET = 0.05


def _median(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[len(ordered) // 2]


def _time(fn, repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return _median(samples)


def _des_workload(tracer: Tracer | None) -> int:
    """The bench_micro_substrate DES-throughput shape, optionally traced."""
    sim = Simulator(tracer=tracer)

    def ticker(env):
        for _ in range(10_000):
            yield env.timeout(1.0)

    sim.process(ticker(sim))
    sim.run()
    return sim.event_count


class _Echo(RemoteObject):
    @remote
    def echo(self, x):
        return x


def _rmi_workload(tracer: Tracer | None) -> int:
    """The bench_micro_substrate RMI-roundtrip shape, optionally traced."""
    sim = Simulator(tracer=tracer)
    net = Network(sim, link_model=UniformLinkModel(latency=1e-4))
    a, b = net.new_host("a"), net.new_host("b")
    server = RmiRuntime(net, b, 5000)
    client = RmiRuntime(net, a, 5000)
    stub = server.serve(_Echo(), "echo")

    def caller(env):
        for i in range(300):
            yield client.call(stub, "echo", i)

    p = sim.process(caller(sim))
    sim.run(until=p)
    return server.served


def _guard_cost_per_check() -> float:
    """Marginal cost of one ``if tracer.enabled:`` disabled-path check.

    A loop that checks the guard once per iteration minus the same loop
    with a bare ``pass``, timed in interleaved pairs so machine-load drift
    hits both, as the median of the per-pair differences: the loop's own
    iteration is not the guard's cost."""
    tracer = NULL_TRACER
    n = 200_000

    def guarded():
        for _ in range(n):
            if tracer.enabled:  # pragma: no cover - never true
                raise AssertionError

    def bare():
        for _ in range(n):
            pass

    return _median([_time(guarded, 1) - _time(bare, 1)
                    for _ in range(REPEATS)]) / n


@pytest.mark.obs_overhead
def test_null_tracer_records_nothing():
    before = len(NULL_TRACER)
    events = _des_workload(tracer=None)
    assert events >= 10_000
    assert len(NULL_TRACER) == before == 0
    assert NULL_TRACER.counts == {}


@pytest.mark.obs_overhead
def test_disabled_guard_under_overhead_budget_des():
    events = 10_001  # one spawn + 10k timeouts
    per_event = _time(lambda: _des_workload(tracer=None)) / events
    guard = _guard_cost_per_check()
    # each DES event crosses at most ~2 guarded sites (spawn + dispatch)
    assert 2 * guard < OVERHEAD_BUDGET * per_event, (
        f"guard check {guard * 1e9:.1f} ns vs {per_event * 1e9:.1f} ns/event"
    )


@pytest.mark.obs_overhead
def test_disabled_guard_under_overhead_budget_rmi():
    calls = 300
    per_call = _time(lambda: _rmi_workload(tracer=None)) / calls
    guard = _guard_cost_per_check()
    # a traced RMI round trip crosses ~6 guarded sites
    # (call, 2x send, 2x deliver, reply)
    assert 6 * guard < OVERHEAD_BUDGET * per_call, (
        f"guard check {guard * 1e9:.1f} ns vs {per_call * 1e9:.1f} ns/call"
    )


@pytest.mark.obs_overhead
def test_disabled_run_not_slower_than_traced_run():
    # interleave the two variants so machine-load drift hits both equally
    disabled, enabled = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _rmi_workload(tracer=None)
        disabled.append(time.perf_counter() - start)
        start = time.perf_counter()
        _rmi_workload(tracer=Tracer())
        enabled.append(time.perf_counter() - start)
    assert _median(disabled) <= _median(enabled) * (1 + OVERHEAD_BUDGET)


@pytest.mark.obs_overhead
def test_traced_run_actually_traces():
    tracer = Tracer()
    calls = _rmi_workload(tracer=tracer)
    assert calls == 300
    assert tracer.count("rmi", "call") == 300
    assert tracer.count("rmi", "reply") == 300
    assert tracer.count("net", "send") >= 600
