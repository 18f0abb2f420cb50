"""Unit tests for the trace bus (repro.obs.trace)."""

import pytest

from repro.des import Simulator
from repro.obs import NULL_TRACER, NullTracer, TraceEvent, Tracer


def test_emit_records_event_with_sequence():
    tr = Tracer()
    ev = tr.emit(1.5, "net", "fabric", "send", msg_id=7)
    assert ev == TraceEvent(1.5, "net", "fabric", "send", {"msg_id": 7}, 1)
    assert len(tr) == 1
    assert list(tr) == [ev]


def test_counts_and_count_filters():
    tr = Tracer()
    tr.emit(0.0, "net", "fabric", "send")
    tr.emit(0.1, "net", "fabric", "send")
    tr.emit(0.2, "net", "fabric", "drop")
    tr.emit(0.3, "p2p", "SP0", "evict")
    assert tr.counts[("net", "send")] == 2
    assert tr.count("net") == 3
    assert tr.count(kind="send") == 2
    assert tr.count("net", "drop") == 1
    assert tr.count("p2p", "send") == 0
    assert tr.count() == 4


def test_select_filters():
    tr = Tracer()
    tr.emit(0.0, "net", "a", "send")
    tr.emit(1.0, "net", "b", "send")
    tr.emit(2.0, "rmi", "a", "call")
    assert len(tr.select(category="net")) == 2
    assert len(tr.select(entity="a")) == 2
    assert tr.select(category="net", entity="b")[0].time == 1.0
    assert len(tr.select(since=0.5, until=1.5)) == 1


def test_max_events_keeps_newest_window_and_exact_counts():
    tr = Tracer(max_events=10)
    for i in range(11):
        tr.emit(float(i), "net", "fabric", "send", i=i)
    assert tr.dropped == 1
    assert len(tr) == 10
    assert tr.events[0].attrs["i"] == 1  # only the oldest event evicted
    assert tr.count("net", "send") == 11  # counter unaffected


def test_null_tracer_is_inert():
    tr = NullTracer()
    assert not tr.enabled
    assert tr.emit(0.0, "net", "fabric", "send", big=list(range(100))) is None
    assert len(tr) == 0
    assert tr.counts == {}
    assert not NULL_TRACER.enabled


def test_event_as_dict_omits_empty_attrs():
    bare = TraceEvent(1.0, "des", "p", "process_spawn", {}, 3)
    assert "attrs" not in bare.as_dict()
    full = TraceEvent(1.0, "net", "f", "drop", {"reason": "loss"}, 4)
    assert full.as_dict()["attrs"] == {"reason": "loss"}


def test_simulator_default_tracer_is_null():
    sim = Simulator()
    assert sim.tracer is NULL_TRACER

    def proc(env):
        yield env.timeout(1.0)

    sim.process(proc(sim))
    sim.run()
    assert len(NULL_TRACER) == 0


def test_simultaneous_des_events_trace_in_deterministic_order():
    """Events at the same simulated time keep kernel dispatch order."""

    def run_once():
        sim = Simulator(tracer=Tracer())

        def worker(env, name):
            yield env.timeout(1.0)  # all wake at t=1.0 simultaneously
            env.tracer.emit(env.now, "test", name, "woke")

        for name in ("a", "b", "c", "d"):
            sim.process(worker(sim, name), label=name)
        sim.run()
        return [(e.entity, e.seq) for e in sim.tracer.select(category="test")]

    first, second = run_once(), run_once()
    assert first == second  # deterministic across runs
    assert [entity for entity, _ in first] == ["a", "b", "c", "d"]
    seqs = [seq for _, seq in first]
    assert seqs == sorted(seqs)  # seq increases monotonically


def test_traced_kernel_emits_spawn_and_interrupt():
    tr = Tracer()
    sim = Simulator(tracer=tr)

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Exception:
            pass

    p = sim.process(sleeper(sim), label="victim")

    def killer(env):
        yield env.timeout(1.0)
        p.interrupt("churn")

    sim.process(killer(sim), label="killer")
    sim.run()
    assert tr.count("des", "process_spawn") == 2
    [intr] = tr.select(category="des", kind="process_interrupt")
    assert intr.entity == "victim"
    assert "churn" in intr.attrs["cause"]


def test_identical_seeds_produce_identical_traces():
    """Same seed -> same events in the same order.

    (msg/call ids come from process-global counters, so the comparison
    projects them out; byte-identical dumps need a fresh interpreter.)
    """
    from repro.exec import RunSpec

    def run():
        tr = Tracer()
        RunSpec(n=16, peers=2, seed=3).run(tracer=tr)
        return [(e.time, e.category, e.kind, e.seq) for e in tr], tr.counts

    assert run() == run()


@pytest.mark.parametrize("value", [float("nan"), object()])
def test_tracer_accepts_any_attr_values(value):
    tr = Tracer()
    tr.emit(0.0, "test", "x", "weird", v=value)
    assert len(tr) == 1
