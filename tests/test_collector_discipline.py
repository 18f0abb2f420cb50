"""The kernel's collector discipline (``repro.des.collector``).

``Simulator.run()`` and ``build_cluster()`` suspend CPython's automatic
cyclic collection and the kernel drives collection from its event counter
instead.  These tests hold the four things that make that safe and free:

* the caller gets the collector back exactly as they left it;
* no automatic pass starts inside ``run()``, only kernel-driven ones;
* the event loop itself makes no cyclic garbage (so the pause costs no
  memory), and where cycles *are* made the valve bounds them;
* nothing simulated can observe a collection: results do not depend on the
  caller's collector state, no finalizers or weak references exist in
  ``src/repro``, and no other module there touches the collector.
"""

import ast
import dataclasses
import gc
import pathlib
import types

import pytest

from repro.des import Simulator, collector
from repro.errors import ConfigurationError, SimulationError
from repro.exec import RunSpec
from repro.experiments.config import EXPERIMENT_CONFIG, EXPERIMENT_LINK_SCALE
from repro.p2p import build_cluster

REPO = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(params=[True, False], ids=["caller-enabled", "caller-disabled"])
def caller_enabled(request):
    """Run the test with the automatic collector on, then off."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def collector_state():
    return gc.isenabled(), gc.get_threshold()


def ticking(sim, count=50):
    """A process that gives ``sim`` ``count`` timeouts to drain."""
    def proc():
        for _ in range(count):
            yield sim.timeout(1.0)
        return "done"
    return sim.process(proc())


def swarm(n_daemons=500):
    """An idle tiered swarm: the ledger's ``swarm_idle`` shape."""
    config = EXPERIMENT_CONFIG.with_(
        superpeer_tiers=3, superpeer_fanout=8)
    return build_cluster(n_daemons=n_daemons, n_superpeers=32, seed=0,
                         config=config, link_scale=EXPERIMENT_LINK_SCALE)


class PassMeter:
    """A ``gc.callbacks`` hook counting passes and what they collected."""

    def __init__(self):
        self.generations = []
        self.collected = 0

    def __call__(self, phase, info):
        if phase == "start":
            self.generations.append(info["generation"])
        else:
            self.collected += info["collected"]

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


# ------------------------------------------------- the collector is left as found


@pytest.mark.parametrize("until", ["none", "deadline", "event"])
def test_run_leaves_collector_as_found(caller_enabled, until):
    before = collector_state()
    sim = Simulator()
    proc = ticking(sim)
    seen = []
    sim.call_later(3.5, lambda: seen.append(gc.isenabled()))
    value = sim.run(until={"none": None, "deadline": 20.0, "event": proc}[until])
    assert seen == [False]  # suspended while the loop runs
    assert collector_state() == before
    if until == "event":
        assert value == "done"


def crash_in_strict_mode():
    sim = Simulator()

    def boom():
        yield sim.timeout(1.0)
        raise RuntimeError("boom")

    sim.process(boom())
    sim.run()


def foreign_until_event():
    Simulator().run(until=Simulator().event())


def deadline_in_the_past():
    sim = Simulator()
    ticking(sim)
    sim.run(until=5.0)
    sim.run(until=1.0)


def drained_before_until_event():
    sim = Simulator()
    sim.run(until=sim.event())


@pytest.mark.parametrize("failing_run", [
    crash_in_strict_mode, foreign_until_event, deadline_in_the_past,
    drained_before_until_event,
], ids=lambda fn: fn.__name__)
def test_run_that_raises_leaves_collector_as_found(caller_enabled, failing_run):
    before = collector_state()
    with pytest.raises(SimulationError):
        failing_run()
    assert collector_state() == before


def test_build_cluster_leaves_collector_as_found(caller_enabled):
    before = collector_state()
    build_cluster(n_daemons=4)
    assert collector_state() == before
    with pytest.raises(ConfigurationError):
        build_cluster(n_daemons=0)
    assert collector_state() == before


def test_second_run_after_the_first_returned(caller_enabled):
    # the collect_solution shape: run to convergence, then run again
    before = collector_state()
    sim = Simulator()
    first = ticking(sim, count=5)
    sim.run(until=first)
    assert collector_state() == before
    second = ticking(sim, count=5)
    assert sim.run(until=second) == "done"
    assert collector_state() == before


def test_nested_pauses_restore_only_at_the_outermost_leave(caller_enabled):
    before = collector_state()
    inner_states = []

    def reenter():
        # a callback that builds a world and drives a second Simulator
        inner = build_cluster(n_daemons=4).sim
        inner_states.append(gc.isenabled())
        inner.run(until=1.0)
        inner_states.append(gc.isenabled())

    sim = Simulator()
    sim.call_later(1.0, reenter)
    sim.call_later(2.0, lambda: inner_states.append(gc.isenabled()))
    sim.run()
    assert inner_states == [False, False, False]
    assert collector_state() == before

    collector.enter()
    try:
        build_cluster(n_daemons=4)
        assert not gc.isenabled()
    finally:
        collector.leave()
    assert collector_state() == before


# ------------------------------------------- only the kernel collects inside run()


def test_no_automatic_pass_inside_run(monkeypatch):
    sim = swarm().sim
    # as if step() had drained most of a stride already: the masked test in
    # the drain loop, not only the hand-over at return, gets to fire
    sim.event_count = start = collector.YOUNG_STRIDE - 5_000

    meter = PassMeter()
    timeline = meter.generations  # passes, and the pause's two edges
    kernel_passes = []

    def counting_collect(generation=2):
        kernel_passes.append(generation)
        return gc.collect(generation)

    monkeypatch.setattr(collector, "gc", types.SimpleNamespace(
        isenabled=gc.isenabled, collect=counting_collect,
        disable=lambda: (gc.disable(), timeline.append("pause")),
        enable=lambda: (timeline.append("resume"), gc.enable())))
    monkeypatch.setattr(collector, "_young_credit", 0)
    monkeypatch.setattr(collector, "_full_credit", 0)

    assert gc.isenabled()
    with meter:
        sim.run(until=2.0)
    # a storm of allocations, ~60 automatic passes' worth at the defaults
    assert sim.event_count - start > 20_000
    # between the pause's edges the interpreter started exactly the passes
    # the kernel asked for (automatic ones resume only after "resume")
    assert timeline[:3] == ["pause", 1, "resume"]
    assert kernel_passes == [1]


# --------------------------------------------------- the cycle-free invariant


def test_event_loop_makes_no_cyclic_garbage():
    # what makes the pause free: with every collector pass accounted for,
    # an idle-swarm run leaves nothing for a full collection to find
    cluster = swarm()
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        with PassMeter() as meter:
            cluster.sim.run(until=2.0)
            unreachable = gc.collect()
        assert cluster.sim.event_count > 20_000
        assert unreachable == 0
        assert meter.collected == 0
        assert not gc.garbage
    finally:
        if was:
            gc.enable()


# ------------------------------------------------------------------ the valve


def tracked_objects():
    return len(gc.get_objects())


def test_valve_bounds_cycles_made_by_callbacks(caller_enabled):
    stride = collector.YOUNG_STRIDE
    sim = Simulator()
    total = 3 * stride
    peak = 0
    gc.collect()
    base = tracked_objects()

    def make_cycle(i):
        nonlocal peak
        cycle = []
        cycle.append(cycle)
        if i % 8192 == 0:
            peak = max(peak, tracked_objects() - base)
        if i < total:
            sim.call_later(1.0, make_cycle, i + 1)

    sim.call_later(1.0, make_cycle, 1)
    sim.run()
    assert sim.event_count == total
    # never more than one young stride of cycles outstanding (pause-only
    # would end with all 3 strides' worth, ~197k objects)
    assert stride // 2 < peak < stride + 1000
    assert tracked_objects() - base < stride + 1000


def test_building_a_world_collects_the_previous_dead_one(caller_enabled):
    # a sweep of event-light runs (a Figure 7 column) never drains a young
    # stride of events per world, so the build itself is credited one: a
    # 200-Daemon world is ~7,300 tracked objects, and six built and dropped
    # without a single event would otherwise leave ~36,000 behind
    gc.collect()
    base = tracked_objects()
    counts = []
    for _ in range(6):
        swarm(n_daemons=200)
        counts.append(tracked_objects() - base)
    assert max(counts) < 1.5 * counts[0], counts


def test_sequential_runs_do_not_pile_up_dead_worlds(monkeypatch):
    # a finished run's world is one reference cycle that only dies after
    # its driver returns, so the *next* run's events must pay for it: the
    # credit is process-wide.  A run here drains ~36k events and leaves a
    # dead world of ~1,300 tracked objects; pause-only with per-Simulator
    # accounting ends ~9,000 up.  The heap proxy is pinned so the full
    # stride (~3 runs) does not depend on what the test session has loaded.
    monkeypatch.setattr(collector, "sys", types.SimpleNamespace(
        getallocatedblocks=lambda: 100_000))
    monkeypatch.setattr(collector, "_young_credit", 0)
    monkeypatch.setattr(collector, "_full_credit", 0)
    spec = RunSpec(n=12, peers=6, disconnections=2, churn_window=0.5)
    counts = []
    for seed in range(8):
        assert dataclasses.replace(spec, seed=seed).run().converged
        counts.append(tracked_objects())
    assert max(counts) - counts[0] < 4_500, counts


# ---------------------------------------------------------------- determinism


@pytest.mark.parametrize("spec", [
    RunSpec(n=16, peers=16, convergence_threshold=1e-3),
    RunSpec(n=16, peers=8, disconnections=2, churn_window=1.0, seed=2),
], ids=["flat16", "churn"])
def test_results_do_not_depend_on_callers_collector_state(spec):
    was = gc.isenabled()
    try:
        gc.enable()
        enabled = spec.run()
        gc.disable()
        disabled = spec.run()
    finally:
        (gc.enable if was else gc.disable)()
    assert enabled.converged
    assert dataclasses.asdict(enabled) == dataclasses.asdict(disabled)


# --------------------------------------------------------------------- guards

COLLECTOR_MODULE = REPO / "src" / "repro" / "des" / "collector.py"
COLLECTOR_CONTROLS = {"disable", "enable", "collect", "set_threshold", "freeze"}


def sources(*roots):
    return sorted(p for root in roots for p in (REPO / root).rglob("*.py"))


def collector_control_uses(tree):
    """``gc.<control>`` attribute uses and ``from gc import <control>``."""
    aliases = {alias.asname or alias.name
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "gc"}
    uses = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in COLLECTOR_CONTROLS
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            uses.append(f"{node.lineno}: gc.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            uses.extend(f"{node.lineno}: from gc import {alias.name}"
                        for alias in node.names
                        if alias.name in COLLECTOR_CONTROLS | {"*"})
    return uses


def test_only_the_collector_module_controls_the_collector():
    offenders = {}
    for path in sources("src/repro", "benchmarks"):
        if path == COLLECTOR_MODULE:
            continue
        uses = collector_control_uses(ast.parse(path.read_text()))
        if uses:
            offenders[str(path.relative_to(REPO))] = uses
    assert not offenders, offenders
    # the walker does see what it is looking for
    assert collector_control_uses(ast.parse(COLLECTOR_MODULE.read_text()))


def test_nothing_simulated_can_observe_a_collection():
    # "collection timing cannot reach simulated state" rests on src/repro
    # having no finalizers and no weak references
    offenders = []
    for path in sources("src/repro"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name == "__del__"):
                offenders.append(f"{path.relative_to(REPO)}:{node.lineno} __del__")
            elif isinstance(node, ast.Import):
                offenders.extend(
                    f"{path.relative_to(REPO)}:{node.lineno} import {a.name}"
                    for a in node.names if a.name.split(".")[0] == "weakref")
            elif (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "weakref"):
                offenders.append(
                    f"{path.relative_to(REPO)}:{node.lineno} from weakref")
    assert not offenders, offenders
