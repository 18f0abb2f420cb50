"""Fault-plane overhead guard: an armed-but-idle plan must be ~free.

Wiring the :class:`repro.faults.FaultInjector` into the experiment driver
put one extra process on the simulator and one ``corruptor`` branch on the
network's delivery path.  Fault-free runs — the entire existing benchmark
and experiment surface — must not pay for the machinery they do not use.

The measurement is ratio-based so it is machine-independent: the same
spec runs twice in-process, once plain and once with a fault plan whose
only action sits far beyond the convergence horizon (the injector arms,
sleeps, and is cancelled — the worst fault-free case).  Both runs must
produce identical results, and the armed run's median wall-clock may
exceed the plain run's by at most 5%.
"""

from __future__ import annotations

import time

import pytest

from repro.exec import RunSpec
from repro.faults import DaemonCrash, FaultPlan

REPEATS = 5
OVERHEAD_BUDGET = 0.05

#: one action far past convergence (t≈0.4 simulated): never fires
IDLE_PLAN = FaultPlan.of(DaemonCrash(time=500.0), name="idle")


def _median(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[len(ordered) // 2]


def _spec(faults: FaultPlan | None) -> RunSpec:
    return RunSpec(n=32, peers=4, seed=0, faults=faults)


@pytest.mark.fault_overhead
def test_armed_idle_plan_changes_nothing():
    plain = _spec(None).run()
    armed = _spec(IDLE_PLAN).run()
    assert armed.faults_executed == 0
    assert armed.converged == plain.converged
    assert armed.residual == plain.residual
    assert armed.total_iterations == plain.total_iterations
    assert armed.simulated_time == plain.simulated_time


@pytest.mark.fault_overhead
def test_armed_idle_plan_under_overhead_budget():
    """Interleaved timing (plain, armed, plain, armed, …) with medians
    keeps the ratio stable on loaded machines."""
    plain_times, armed_times = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _spec(None).run()
        plain_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        _spec(IDLE_PLAN).run()
        armed_times.append(time.perf_counter() - start)
    overhead = _median(armed_times) / _median(plain_times) - 1.0
    assert overhead < OVERHEAD_BUDGET, f"armed-idle overhead {overhead:.1%}"
