"""Tests for condition events (AllOf/AnyOf) and stores."""

import pytest

from repro.des import Simulator, Store
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


# -------------------------------------------------------------------- stores


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer(env):
        for i in range(3):
            yield env.timeout(1)
            store.put(i)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append((env.now, item))

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert got == [(1.0, 0), (2.0, 1), (3.0, 2)]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)

    def consumer(env):
        item = yield store.get()
        return (env.now, item)

    def producer(env):
        yield env.timeout(7)
        store.put("late")

    c = sim.process(consumer(sim))
    sim.process(producer(sim))
    sim.run()
    assert c.value == (7.0, "late")


def test_store_multiple_getters_served_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(env, name):
        item = yield store.get()
        got.append((name, item))

    def producer(env):
        yield env.timeout(1)
        store.put("x")
        store.put("y")

    sim.process(consumer(sim, "c0"))
    sim.process(consumer(sim, "c1"))
    sim.process(producer(sim))
    sim.run()
    assert got == [("c0", "x"), ("c1", "y")]


def test_store_capacity_drop():
    sim = Simulator()
    store = Store(sim, capacity=2)
    assert store.try_put(1) and store.try_put(2)
    assert not store.try_put(3)
    assert store.dropped == 1
    assert store.put_count == 3
    with pytest.raises(SimulationError):
        store.put(4)


def test_store_nonblocking_helpers():
    sim = Simulator()
    store = Store(sim)
    assert store.drain() == []
    store.put("a")
    store.put("b")
    assert store.drain() == ["a", "b"]
    assert len(store) == 0


def test_store_invalid_capacity():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Store(sim, capacity=0)
