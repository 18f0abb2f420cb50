"""Tests for the real threaded backend: channels + executor."""

import pytest

from repro.errors import TaskError
from repro.local import LatestValueChannel, MailboxSet, ThreadedEngine, executor
from repro.apps import make_poisson_app
from repro.numerics import Poisson2D
from repro.p2p import AppSpec, Task

from tests.helpers import assemble_strip_solution, make_geometric_app


# ------------------------------------------------------------------- channels


def test_channel_last_write_wins():
    ch = LatestValueChannel()
    assert ch.take() == (False, None)
    ch.put(1)
    ch.put(2)
    assert ch.take() == (True, 2)
    assert ch.take() == (False, None)


def test_mailbox_set_collect():
    mb = MailboxSet(3)
    mb.send(0, 2, "a")
    mb.send(1, 2, "b")
    mb.send(0, 2, "a2")  # overwrites
    inbox = mb.collect(2)
    assert inbox == {0: "a2", 1: "b"}
    assert mb.collect(2) == {}


def test_mailbox_set_validation():
    with pytest.raises(ValueError):
        MailboxSet(0)
    mb = MailboxSet(2)
    with pytest.raises(KeyError):
        mb.send(0, 0, "x")  # no self-channel


def test_channel_thread_safety_under_contention():
    import threading

    ch = LatestValueChannel()
    stop = threading.Event()
    taken = []

    def producer():
        for i in range(5000):
            ch.put(i)
        stop.set()

    def consumer():
        while True:
            done = stop.is_set()  # read before take: no put can follow it
            fresh, v = ch.take()
            if fresh:
                taken.append(v)
            elif done:
                return

    t1, t2 = threading.Thread(target=producer), threading.Thread(target=consumer)
    t1.start(); t2.start(); t1.join(); t2.join()
    assert taken, "consumer saw nothing"
    assert taken == sorted(taken)  # monotone: never see an older value
    assert taken[-1] == 4999


# ------------------------------------------------------------------- executor


def test_threaded_async_geometric_converges():
    engine = ThreadedEngine(make_geometric_app(num_tasks=3), mode="async")
    result = engine.run()
    assert result.converged
    assert result.total_iterations > 0
    assert all(abs(frag[1]) < 1e-3 for frag in result.fragments.values())


def test_threaded_sync_geometric_converges():
    engine = ThreadedEngine(make_geometric_app(num_tasks=3), mode="sync")
    result = engine.run()
    assert result.converged
    # BSP: every task performs the same number of supersteps (+-1 at stop)
    counts = list(result.iterations.values())
    assert max(counts) - min(counts) <= 1


def test_threaded_async_poisson_accuracy():
    app = make_poisson_app(
        "p", n=12, num_tasks=3, convergence_threshold=1e-8
    )
    result = ThreadedEngine(app, mode="async").run()
    assert result.converged
    x = assemble_strip_solution(result.fragments, 144)
    assert Poisson2D.manufactured(12).residual_norm(x) < 1e-4


def test_threaded_sync_poisson_accuracy():
    app = make_poisson_app(
        "p", n=12, num_tasks=3, convergence_threshold=1e-8
    )
    result = ThreadedEngine(app, mode="sync").run()
    assert result.converged
    x = assemble_strip_solution(result.fragments, 144)
    assert Poisson2D.manufactured(12).residual_norm(x) < 1e-4


def test_threaded_single_task():
    result = ThreadedEngine(make_geometric_app(num_tasks=1)).run()
    assert result.converged
    assert result.useless_iterations == {0: 0}  # solo task is never 'useless'


def test_threaded_max_iterations_guard(monkeypatch):
    monkeypatch.setattr(executor, "MAX_ITERATIONS", 50)
    app = make_geometric_app(num_tasks=2, rate=0.999999, threshold=1e-15)
    result = ThreadedEngine(app).run()
    assert not result.converged
    assert all(c <= 50 for c in result.iterations.values())


def test_threaded_worker_exception_surfaces():
    class Bomb(Task):
        def setup(self, ctx):
            super().setup(ctx)

        def initial_state(self):
            return {}

        def load_state(self, state):
            pass

        def dump_state(self):
            return {}

        def iterate(self, inbox):
            raise RuntimeError("bad task")

    app = AppSpec(app_id="bomb", task_factory=Bomb, num_tasks=2)
    with pytest.raises(TaskError, match="bad task"):
        ThreadedEngine(app).run()


def test_threaded_engine_validation():
    app = make_geometric_app()
    with pytest.raises(ValueError):
        ThreadedEngine(app, mode="chaos")
