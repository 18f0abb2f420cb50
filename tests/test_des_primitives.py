"""Tests for condition events (AllOf/AnyOf)."""

import pytest

from repro.des import Simulator
from repro.errors import SimulationError


# ---------------------------------------------------------------- conditions


def test_all_of_waits_for_every_event():
    sim = Simulator()

    def proc(env):
        t1, t2, t3 = env.timeout(1, "a"), env.timeout(2, "b"), env.timeout(3, "c")
        result = yield env.all_of([t1, t2, t3])
        return (env.now, sorted(result.values()))

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == (3.0, ["a", "b", "c"])


def test_any_of_fires_on_first():
    sim = Simulator()

    def proc(env):
        t1, t2 = env.timeout(5, "slow"), env.timeout(1, "fast")
        result = yield env.any_of([t1, t2])
        assert t2 in result and t1 not in result
        return (env.now, result[t2])

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == (1.0, "fast")


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def proc(env):
        result = yield env.all_of([])
        return (env.now, len(result))

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == (0.0, 0)


def test_condition_fails_fast_on_subevent_failure():
    sim = Simulator()

    def proc(env):
        good = env.timeout(5)
        bad = env.event()
        bad.fail(ValueError("sub failed"))
        try:
            yield env.all_of([good, bad])
        except ValueError as e:
            return ("caught", str(e), env.now)

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == ("caught", "sub failed", 0.0)


def test_condition_value_keyerror_for_missing_event():
    sim = Simulator()

    def proc(env):
        fast, slow = env.timeout(1), env.timeout(9)
        result = yield env.any_of([fast, slow])
        with pytest.raises(KeyError):
            result[slow]
        return True

    p = sim.process(proc(sim))
    sim.run()
    assert p.value is True


def test_condition_with_already_processed_events():
    sim = Simulator()

    def proc(env):
        t = env.timeout(1, "early")
        yield env.timeout(2)  # t is now processed
        result = yield env.all_of([t])
        return result[t]

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == "early"
