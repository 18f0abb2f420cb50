"""Tests for the experiment harness (cheap parameterizations)."""

import math

import pytest

from repro.checkpoint import FixedPolicy
from repro.exec import RunSpec
from repro.experiments import (
    EXPERIMENT_CONFIG,
    figure7_sweep,
    format_table,
    iterations_vs_n,
    optimal_overlap,
    sync_vs_async,
)
from repro.experiments.ablations import overlap_ablation
from repro.experiments.report import format_value


# -------------------------------------------------------------------- config


def test_experiment_config_is_valid_and_paperlike():
    paper = RunSpec(n=24).normalized().checkpoint  # what experiments run with
    assert paper == FixedPolicy(count=20, frequency=5)  # paper §7
    assert EXPERIMENT_CONFIG.heartbeat_timeout > EXPERIMENT_CONFIG.heartbeat_period


def test_optimal_overlap_rule():
    assert optimal_overlap(40, 8) == 2   # width 5 -> half
    assert optimal_overlap(128, 8) == 8  # width 16 -> half
    assert optimal_overlap(8, 8) == 0    # width 1 -> no room
    # always valid for the decomposition: overlap + 1 <= width
    for n in range(8, 200, 8):
        width = n // 8
        assert optimal_overlap(n, 8) + 1 <= width


# -------------------------------------------------------------------- driver


def test_run_poisson_result_fields():
    r = RunSpec(n=24, peers=3, seed=1, horizon=300.0).run()
    assert r.converged
    assert r.simulated_time > 0
    assert r.residual is not None and r.residual < 1e-3
    assert r.total_iterations > 0
    assert r.disconnections_executed == 0
    assert r.overlap == optimal_overlap(24, 3)
    row = r.row()
    assert row["n"] == 24 and row["size"] == 576


def test_run_poisson_with_churn_recovers():
    # pin the churn window to early-run so the failure is detected and
    # recovered well before convergence (the n=48 run lasts ~1 s simulated
    # against a ~0.5 s detection+replacement cycle)
    r = RunSpec(n=48, peers=4, disconnections=1, seed=3,
                churn_window=0.5, horizon=300.0).run()
    assert r.converged
    assert r.disconnections_executed == 1
    assert r.recoveries >= 1
    assert r.residual is not None and r.residual < 1e-3


def test_run_poisson_deterministic_per_seed():
    r1 = RunSpec(n=24, peers=3, seed=5, collect=False).run()
    r2 = RunSpec(n=24, peers=3, seed=5, collect=False).run()
    assert r1.simulated_time == r2.simulated_time
    assert r1.total_iterations == r2.total_iterations


def test_uncollected_churn_run_reports_wasted_iterations():
    # the run stops at convergence, before any halt lands: the frontier
    # comes from the runners still live there
    r = RunSpec(n=16, peers=3, seed=7, disconnections=2,
                convergence_threshold=1e-4, collect=False).run()
    assert r.converged
    assert r.recoveries > r.restarts_from_zero  # a Backup was restored
    assert 0 < r.wasted_iterations < r.total_iterations


def test_run_poisson_validation():
    with pytest.raises(ValueError):
        RunSpec(n=24, peers=0).run()
    with pytest.raises(ValueError):
        RunSpec(n=24, peers=2, disconnections=-1).run()


# ------------------------------------------------------- the RunSpec-first API


def test_run_and_execute_share_one_body():
    """``RunSpec.run``, ``RunSpec.execute`` and ``execute_spec`` are one
    entrypoint: same spec, same result, whichever spelling launches it."""
    from repro.experiments.driver import execute_spec

    spec = RunSpec(n=24, peers=3, seed=1)
    result = spec.run()
    assert result == RunSpec(n=24, peers=3, seed=1).run()
    assert result == spec.execute() == execute_spec(spec)
    assert result.run_report is None  # traced=False: no tracer was built


# ------------------------------------------------------------------- figure 7


def test_figure7_sweep_tiny():
    result = figure7_sweep(ns=(24,), disconnections=(0, 1), peers=3, repeats=1)
    assert (24, 0) in result.times and (24, 1) in result.times
    assert result.times[(24, 1)] >= result.times[(24, 0)] * 0.8
    table = result.format_table()
    assert "disc=0" in table and "slowdown" in table
    assert not math.isnan(result.slowdown(24))


def test_figure7_validation():
    with pytest.raises(ValueError):
        figure7_sweep(ns=(24,), repeats=0)


# ---------------------------------------------------------------- ratio / C1


def test_iterations_vs_n_tiny():
    result = iterations_vs_n(ns=(24, 40), peers=4)
    assert len(result.rows) == 2
    table = result.format_table()
    assert "sync sweeps" in table
    # C1 direction even at this tiny scale
    assert result.async_iters()[0] > result.async_iters()[1]


# ------------------------------------------------------------------ sync/async


def test_sync_vs_async_tiny():
    result = sync_vs_async(n=24, peers=3, disconnections=0, horizon=300.0)
    assert result.async_time is not None
    assert result.sync_time is not None
    assert result.sync_rollbacks == 0
    assert "sync/async" in result.format_table()


# ------------------------------------------------------------------ ablations


def test_overlap_ablation_tiny():
    table = overlap_ablation(overlaps=(0, 1), n=24, peers=4)
    assert len(table.rows) == 2
    assert table.rows[0][1] > table.rows[1][1]  # fewer sweeps with overlap
    assert table.rows[0][2] == table.rows[1][2]  # constant exchange


# -------------------------------------------------------------------- report


def test_format_value():
    assert format_value(None) == "-"
    assert format_value(0.0) == "0"
    assert format_value(1234567.0) == "1.23e+06"
    assert format_value(0.25) == "0.25"
    assert format_value(3) == "3"
    assert format_value("x") == "x"


def test_format_table_alignment():
    text = format_table(["a", "bb"], [[1, 2.5], [10, None]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len({len(l) for l in lines[1:]}) == 1  # rectangular

def test_format_table_empty_rows():
    text = format_table(["x"], [])
    assert "x" in text
