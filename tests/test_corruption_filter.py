"""Tests for corruption-resilient iteration (arXiv:2206.08479).

The :class:`~repro.p2p.task.ComponentFilter` screens incoming boundary
components against a contraction bound; the Daemon screens restored
checkpoints with :meth:`Task.state_plausible`.  The ``poisoned-channel``
scenario is the acceptance case: whole-run silent corruption that breaks
the solver without the filter and is survived with it.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.exec import RunSpec
from repro.faults import scenario
from repro.faults.scenarios import scenario_overrides
from repro.p2p.task import ComponentFilter, Task, TaskContext


def make_task(reject=True, **params):
    t = Task()
    if reject:
        params["reject_corruption"] = True
    t.setup(TaskContext("app", 0, 2, params))
    return t


# ----------------------------------------------------------- unit: filter


def test_filter_accepts_contracting_sequence():
    f = ComponentFilter()
    x = np.linspace(1.0, 2.0, 8)
    for k in range(10):
        out = f.filter(1, x * (1.0 - 0.1 * k))
        assert out is not None
    assert f.rejected == 0


def test_filter_rejects_poisoned_component_and_reuses_last():
    f = ComponentFilter()
    clean = np.linspace(1.0, 2.0, 8)
    f.filter(1, clean)            # establishes the reference scale
    f.filter(1, clean * 0.95)
    poisoned = clean * 0.90
    poisoned[3] = 1e3             # the injector's single-index perturbation
    out = f.filter(1, poisoned)
    assert f.rejected == 1
    assert out[3] == pytest.approx(clean[3] * 0.95)  # last accepted value
    ok = np.delete(np.arange(8), 3)
    assert np.allclose(out[ok], poisoned[ok])


def test_filter_accepts_wholesale_regime_change():
    """All components implausible at once = a legitimate restart, not the
    single-component corruption the adversary injects."""
    f = ComponentFilter()
    f.filter(1, np.ones(8))
    f.filter(1, np.ones(8) * 0.9)
    out = f.filter(1, np.ones(8) * 1e4)
    assert f.rejected == 0
    assert np.allclose(out, 1e4)


def test_filter_patience_prevents_permanent_freeze_out():
    f = ComponentFilter(patience=3)
    base = np.linspace(1.0, 2.0, 8)
    f.filter(1, base)
    f.filter(1, base * 0.95)
    drift = base.copy()
    drift[0] = 500.0
    for _ in range(3):
        f.filter(1, drift)
    out = f.filter(1, drift)      # patience exhausted: accepted wholesale
    assert out[0] == 500.0


def test_filter_tracks_sources_independently():
    f = ComponentFilter()
    f.filter(1, np.ones(4))
    f.filter(1, np.ones(4) * 0.9)
    # src 2 has no history: its first huge payload is a baseline, not
    # corruption
    out = f.filter(2, np.ones(4) * 1e6)
    assert np.allclose(out, 1e6)
    assert f.rejected == 0


def test_filter_validation():
    with pytest.raises(ConfigurationError):
        ComponentFilter(safety=0.0)
    with pytest.raises(ConfigurationError):
        ComponentFilter(decay=1.5)
    with pytest.raises(ConfigurationError):
        ComponentFilter(patience=0)


# -------------------------------------------------------- unit: task hooks


def test_task_guard_payload_is_passthrough_without_flag():
    t = make_task(reject=False)
    x = np.array([1.0, 1e30])
    assert t.guard_payload(1, x) is x
    assert t.components_rejected == 0


def test_task_guard_payload_filters_with_flag():
    t = make_task()
    clean = np.linspace(1.0, 2.0, 8)
    t.guard_payload(1, clean)
    t.guard_payload(1, clean * 0.95)
    poisoned = clean * 0.9
    poisoned[2] = 1e9
    out = t.guard_payload(1, poisoned)
    assert t.components_rejected == 1
    assert out[2] == pytest.approx(clean[2] * 0.95)


def test_state_plausible_rejects_nan_and_blowup():
    t = make_task()
    assert t.state_plausible({"x": np.ones(4), "iteration": 3})
    assert not t.state_plausible({"x": np.array([1.0, np.nan])})
    assert not t.state_plausible({"x": np.array([1.0, 1e12])})
    # ceiling is a parameter
    loose = make_task(reject_ceiling=1e15)
    assert loose.state_plausible({"x": np.array([1.0, 1e12])})


# --------------------------------------------------- end-to-end acceptance


def test_poisoned_channel_breaks_unfiltered_run():
    """Whole-run corruption, no filter: the run must NOT converge within a
    horizon several times the clean convergence time (~0.42 s)."""
    r = RunSpec(n=32, peers=4, seed=0, faults=scenario("poisoned-channel"),
                horizon=2.0).run()
    assert not (r.converged and r.residual is not None and r.residual < 1e-3)


def test_poisoned_channel_survived_with_filter():
    r = RunSpec(n=32, peers=4, seed=0, faults=scenario("poisoned-channel"),
                reject_corruption=True).run()
    assert r.converged
    assert r.residual is not None and r.residual < 1e-3
    assert r.components_rejected > 0


def test_poisoned_channel_scenario_declares_requirement():
    assert scenario_overrides("poisoned-channel") == {
        "reject_corruption": True
    }
