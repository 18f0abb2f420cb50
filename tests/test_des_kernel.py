"""Unit tests for the discrete-event kernel (events, processes, run modes)."""

import pytest

from repro.des import Simulator, Interrupt
from repro.errors import SimulationError


def test_empty_run_terminates():
    sim = Simulator()
    sim.run()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(env):
        yield env.timeout(2.5)
        return env.now

    p = sim.process(proc(sim))
    sim.run()
    assert sim.now == 2.5
    assert p.value == 2.5


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_processes_interleave_deterministically():
    sim = Simulator()
    order = []

    def worker(env, name, delay):
        yield env.timeout(delay)
        order.append((env.now, name))
        yield env.timeout(delay)
        order.append((env.now, name))

    sim.process(worker(sim, "a", 1.0))
    sim.process(worker(sim, "b", 1.5))
    sim.run()
    assert order == [(1.0, "a"), (1.5, "b"), (2.0, "a"), (3.0, "b")]


def test_simultaneous_events_fire_in_creation_order():
    sim = Simulator()
    order = []

    def w(env, name):
        yield env.timeout(1.0)
        order.append(name)

    for name in ["p0", "p1", "p2", "p3"]:
        sim.process(w(sim, name))
    sim.run()
    assert order == ["p0", "p1", "p2", "p3"]


def test_run_until_deadline_stops_clock_exactly():
    sim = Simulator()

    def ticker(env):
        while True:
            yield env.timeout(1.0)

    sim.process(ticker(sim))
    sim.run(until=5.5)
    assert sim.now == 5.5


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc(env):
        yield env.timeout(3)
        return 42

    p = sim.process(proc(sim))
    assert sim.run(until=p) == 42


def test_run_until_event_deadlock_detected():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run(until=ev)


def test_run_until_past_deadline_rejected():
    sim = Simulator()
    sim.run(until=10)
    with pytest.raises(SimulationError):
        sim.run(until=5)


def test_process_joins_another_process():
    sim = Simulator()

    def child(env):
        yield env.timeout(2)
        return "child-result"

    def parent(env):
        c = env.process(child(env))
        result = yield c
        return ("parent-saw", result, env.now)

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == ("parent-saw", "child-result", 2.0)


def test_joining_finished_process_resumes_immediately():
    sim = Simulator()

    def child(env):
        return "done"
        yield  # pragma: no cover

    def parent(env):
        c = env.process(child(env))
        yield env.timeout(5)
        result = yield c  # already processed
        return (result, env.now)

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == ("done", 5.0)


def test_event_succeed_delivers_value():
    sim = Simulator()
    gate = sim.event("gate")

    def waiter(env):
        v = yield gate
        return v

    def opener(env):
        yield env.timeout(1)
        gate.succeed("open-sesame")

    w = sim.process(waiter(sim))
    sim.process(opener(sim))
    sim.run()
    assert w.value == "open-sesame"


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    gate = sim.event()

    def waiter(env):
        try:
            yield gate
        except ValueError as e:
            return f"caught:{e}"

    def failer(env):
        yield env.timeout(1)
        gate.fail(ValueError("boom"))

    w = sim.process(waiter(sim))
    sim.process(failer(sim))
    sim.run()
    assert w.value == "caught:boom"


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError())


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_process_crash_propagates_in_strict_mode():
    sim = Simulator()

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("kaboom")

    sim.process(bad(sim))
    with pytest.raises(SimulationError, match="crashed"):
        sim.run()


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def bad(env):
        yield 17

    p = sim.process(bad(sim))
    sim.run()
    assert not p.ok
    assert isinstance(p.value, SimulationError)


def test_interrupt_wakes_sleeping_process():
    sim = Simulator()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100)
            log.append("overslept")
        except Interrupt as i:
            log.append(("interrupted", env.now, i.cause))

    def killer(env, victim):
        yield env.timeout(3)
        victim.interrupt(cause="churn")

    victim = sim.process(sleeper(sim))
    sim.process(killer(sim, victim))
    sim.run()
    assert log == [("interrupted", 3.0, "churn")]


def test_unhandled_interrupt_terminates_process_cleanly():
    sim = Simulator()

    def sleeper(env):
        yield env.timeout(100)

    def killer(env, victim):
        yield env.timeout(1)
        victim.interrupt(cause="off-switch")

    victim = sim.process(sleeper(sim))
    sim.process(killer(sim, victim))
    sim.run()  # must not raise: unhandled Interrupt is a normal death
    assert victim.processed
    assert isinstance(victim.value, Interrupt)
    # the stale 100s timeout still drains from the schedule, but resumes
    # nobody — the victim stays dead
    assert sim.now == 100.0


def test_interrupted_process_does_not_wake_on_stale_timeout():
    sim = Simulator()
    wakeups = []

    def sleeper(env):
        try:
            yield env.timeout(10)
            wakeups.append("t10")
        except Interrupt:
            yield env.timeout(1)  # survives, goes back to sleep briefly
            wakeups.append("recovered")

    def killer(env, victim):
        yield env.timeout(5)
        victim.interrupt()

    victim = sim.process(sleeper(sim))
    sim.process(killer(sim, victim))
    sim.run()
    # the original t=10 timeout still fires at the kernel level but must not
    # resume the process a second time
    assert wakeups == ["recovered"]
    assert victim.processed


def test_interrupt_dead_process_rejected():
    sim = Simulator()

    def quick(env):
        yield env.timeout(1)

    p = sim.process(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_self_interrupt_rejected():
    sim = Simulator()

    def suicidal(env, me):
        yield env.timeout(0)
        me[0].interrupt()

    holder = []
    p = sim.process(suicidal(sim, holder))
    holder.append(p)
    with pytest.raises(SimulationError, match="crashed"):
        sim.run()
    assert not p.ok
    assert isinstance(p.value, SimulationError)


def test_interrupt_cause_roundtrip():
    exc = Interrupt(cause={"reason": "maintenance"})
    assert exc.cause == {"reason": "maintenance"}


def test_event_count_increments():
    sim = Simulator()

    def proc(env):
        for _ in range(10):
            yield env.timeout(1)

    sim.process(proc(sim))
    sim.run()
    assert sim.event_count >= 10


def test_step_on_empty_schedule_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


@pytest.mark.parametrize("delivery_first", [True, False])
def test_a_delivery_and_a_call_due_together_run_in_scheduling_order(delivery_first):
    """A message in flight and a ``call_later`` callback share one sequence
    counter, so at the same instant they run in the order they were
    scheduled, whichever came first."""
    from repro.net import Address, Network, UniformLinkModel

    sim = Simulator()
    net = Network(sim, link_model=UniformLinkModel(latency=1e-3))
    a, b = net.new_host("a"), net.new_host("b")
    order = []
    b.open_endpoint(9, lambda payload: order.append((sim.now, payload)))
    delay = net.link_model.delay(a, b, 64)

    def send():
        net.send(Address("a", 1), Address("b", 9), "delivery", size=64)

    def call_later():
        sim.call_later(delay, lambda: order.append((sim.now, "call")))

    for schedule in ((send, call_later) if delivery_first else (call_later, send)):
        schedule()
    sim.run()
    expected = ["delivery", "call"] if delivery_first else ["call", "delivery"]
    assert order == [(delay, name) for name in expected]
    assert sim.event_count == 3  # the delivery's arrival and dispatch, the call
