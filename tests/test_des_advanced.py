"""Advanced DES kernel scenarios: nested processes, canceled waiters,
interrupt interplay with waiting."""

import pytest

from repro.des import Interrupt, Simulator
from repro.errors import SimulationError


def test_deep_process_chain_joins_in_order():
    sim = Simulator()
    order = []

    def leaf(env, k):
        yield env.timeout(0.1 * (k + 1))
        order.append(f"leaf{k}")
        return k

    def mid(env, k):
        value = yield env.process(leaf(env, k))
        order.append(f"mid{k}")
        return value * 10

    def root(env):
        results = []
        for k in range(3):
            results.append((yield env.process(mid(env, k))))
        order.append("root")
        return results

    p = sim.process(root(sim))
    sim.run()
    assert p.value == [0, 10, 20]
    assert order == ["leaf0", "mid0", "leaf1", "mid1", "leaf2", "mid2", "root"]


def test_interrupted_waiter_is_not_resumed_by_its_old_target():
    """A process interrupted while waiting on an event detaches from it:
    when that event fires later, only the waiter still on it resumes."""
    sim = Simulator()
    gate = sim.event()
    got = []

    def waiter(env, name):
        try:
            item = yield gate
            got.append((name, item, env.now))
        except Interrupt:
            got.append((name, "interrupted", env.now))
            yield env.timeout(10)
            got.append((name, "slept", env.now))

    first = sim.process(waiter(sim, "first"))
    sim.process(waiter(sim, "second"))

    def script(env):
        yield env.timeout(1)
        first.interrupt()
        yield env.timeout(1)
        gate.succeed("prize")

    sim.process(script(sim))
    sim.run()
    assert got == [("first", "interrupted", 1.0), ("second", "prize", 2.0),
                   ("first", "slept", 11.0)]


def test_event_processed_then_yielded_by_two_processes():
    sim = Simulator()
    gate = sim.event()
    seen = []

    def early(env):
        value = yield gate
        seen.append(("early", value, env.now))

    def late(env):
        yield env.timeout(5)
        value = yield gate  # long processed by now
        seen.append(("late", value, env.now))

    sim.process(early(sim))
    sim.process(late(sim))
    gate.succeed("open")
    sim.run()
    assert ("early", "open", 0.0) in seen
    assert ("late", "open", 5.0) in seen


def test_failed_event_rethrows_for_late_yielder():
    sim = Simulator(strict=False)
    gate = sim.event()
    gate.fail(ValueError("poisoned"))

    def late(env):
        yield env.timeout(2)
        try:
            yield gate
        except ValueError as exc:
            return f"caught:{exc}"

    p = sim.process(late(sim))
    sim.run()
    assert p.value == "caught:poisoned"


def test_interrupting_a_just_finished_process_is_an_error():
    """FIFO at equal times: the sleeper's t=5 wake-up processes before the
    killer's t=5 turn, so by the time the killer acts its victim is dead —
    and interrupting a dead process is a programming error, loudly."""
    sim = Simulator(strict=False)
    outcome = []

    def sleeper(env):
        try:
            yield env.timeout(5)
            outcome.append("woke")
        except Interrupt:
            outcome.append("interrupted")

    victim = sim.process(sleeper(sim))

    def killer(env):
        yield env.timeout(5)  # exactly when the sleeper wakes
        victim.interrupt()

    killer_proc = sim.process(killer(sim))
    sim.run()
    assert outcome == ["woke"]
    assert not killer_proc.ok
    assert isinstance(killer_proc.value, SimulationError)


def test_interrupt_beats_wakeup_when_scheduled_first():
    """The URGENT priority: an interrupt issued strictly before the
    victim's wake-up instant always wins, even by a hair."""
    sim = Simulator()
    outcome = []

    def sleeper(env):
        try:
            yield env.timeout(5)
            outcome.append("woke")
        except Interrupt:
            outcome.append("interrupted")

    victim = sim.process(sleeper(sim))

    def killer(env):
        yield env.timeout(5 - 1e-12)
        victim.interrupt()

    sim.process(killer(sim))
    sim.run()
    assert outcome == ["interrupted"]


def test_two_simulators_do_not_share_events():
    sim1, sim2 = Simulator(), Simulator()
    foreign = sim2.timeout(1)

    def proc(env):
        yield foreign

    p = sim1.process(proc(sim1))
    sim1.run(until=1.0)
    assert not p.ok
    assert isinstance(p.value, SimulationError)
