"""Tests for the slotted periodic TimerWheel.

The wheel is the swarm-scale heartbeat substrate (docs/scaling.md): these
tests pin the quantization rule (a timer registered mid-slot first fires
on the next boundary, never early), the in-slot firing order, the
next-boundary semantics for entries registered mid-fire, and — the point
of the exercise — that a wheel full of timers costs one kernel event per
slot where the per-process reference pays one per timer.
"""

import pytest

from repro.des import Simulator
from repro.errors import SimulationError

WIDTH = 0.1


def make_wheel(width=WIDTH):
    sim = Simulator()
    return sim, sim.timer_wheel(width)


def at(sim, when, fn, *args):
    """Call ``fn(*args)`` at simulated time ``when`` (from a process)."""

    def proc():
        yield sim.timeout(when)
        fn(*args)

    sim.process(proc())


def once(log, item):
    """A periodic callback that records one firing and deregisters."""

    def tick():
        log.append(item)
        return False

    return tick


# -- quantization ---------------------------------------------------------------


def test_after_rounds_up_to_slot_boundary():
    # registered 0.25 s in: the first firing is the 0.3 boundary
    sim, wheel = make_wheel()
    fired = []

    def tick():
        fired.append(sim.now)
        return False

    at(sim, 0.25, wheel.every, tick)
    sim.run()
    assert fired == [pytest.approx(0.3)]


def test_same_slot_fires_in_registration_order():
    sim, wheel = make_wheel()
    order = []
    # different registration times, same slot (0.3)
    at(sim, 0.28, wheel.every, once(order, "c"))
    at(sim, 0.21, wheel.every, once(order, "a"))
    at(sim, 0.25, wheel.every, once(order, "b"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert wheel.slots_fired == 1  # one kernel event served all three
    assert wheel.timers_fired == 3


def test_float_fuzz_does_not_skip_a_slot():
    # three 0.1 timeouts accumulate to 0.30000000000000004 and the literal
    # 0.3 sits an ulp below 3 * 0.1: both are the 0.3 boundary, so both
    # timers first fire together one slot later — neither an ulp after
    # registering nor a slot late
    sim, wheel = make_wheel()
    fired = []

    def accumulate():
        for _ in range(3):
            yield sim.timeout(0.1)
        wheel.every(once(fired, sim.now))

    sim.process(accumulate())
    at(sim, 0.3, wheel.every, once(fired, 0.3))
    sim.run()
    assert fired == [0.3, 0.1 + 0.1 + 0.1]  # 0.3 is the earlier float
    assert sim.now == pytest.approx(0.4, abs=1e-9)
    assert wheel.slots_fired == 1


def test_zero_slot_width_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timer_wheel(0.0)


# -- periodic timers ----------------------------------------------------------


def test_every_fires_each_boundary_until_false():
    sim, wheel = make_wheel()
    times = []

    def tick():
        times.append(round(sim.now, 10))
        return len(times) < 4  # deregister after the 4th firing

    wheel.every(tick)
    sim.run(until=2.0)
    assert times == [pytest.approx(t) for t in (0.1, 0.2, 0.3, 0.4)]
    assert len(wheel) == 0  # returning False removed the entry


def test_registration_during_firing_starts_next_boundary():
    sim, wheel = make_wheel()
    log = []

    def inner():
        log.append(("inner", round(sim.now, 10)))
        return False

    def outer():
        log.append(("outer", round(sim.now, 10)))
        if len(log) == 1:
            wheel.every(inner)  # registered mid-fire: must NOT run this slot
        return len([e for e in log if e[0] == "outer"]) < 2

    wheel.every(outer)
    sim.run(until=1.0)
    assert log == [
        ("outer", pytest.approx(0.1)),
        ("outer", pytest.approx(0.2)),
        ("inner", pytest.approx(0.2)),
    ]


# -- wheel vs per-process reference -------------------------------------------


def test_wheel_matches_per_process_reference_times():
    """N periodic wheel timers fire at exactly the times N dedicated DES
    processes sleeping the slot width would — same timestamps, same
    per-boundary grouping — while costing one kernel event per slot."""
    N, HORIZON = 50, 1.0

    # reference arm: one process per timer
    ref_sim = Simulator()
    ref_times: list[list[float]] = [[] for _ in range(N)]

    def beater(env, out):
        while True:
            yield env.timeout(WIDTH)
            out.append(round(env.now, 10))

    for i in range(N):
        ref_sim.process(beater(ref_sim, ref_times[i]))
    ref_sim.run(until=HORIZON)

    # wheel arm: one wheel, N entries
    sim, wheel = make_wheel()
    wheel_times: list[list[float]] = [[] for _ in range(N)]
    for i in range(N):
        wheel.every(lambda out=wheel_times[i]: out.append(round(sim.now, 10)))
    sim.run(until=HORIZON)

    assert wheel_times == ref_times
    # cost collapse: the reference pays ~N events per boundary, the wheel
    # pays one (10 boundaries over the horizon)
    assert wheel.slots_fired == 10
    assert wheel.timers_fired == N * 10
    assert sim.event_count < ref_sim.event_count / (N / 4)


def test_wheel_stops_arming_when_empty():
    sim, wheel = make_wheel()
    wheel.every(lambda: False)  # fires once, deregisters
    sim.run()
    # schedule drained: no perpetual re-arming of empty slots
    assert sim.now == pytest.approx(0.1)
    assert wheel.slots_fired == 1
