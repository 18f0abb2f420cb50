"""Shared benchmark utilities.

Every benchmark regenerates one table/figure/claim from the paper's
evaluation (see DESIGN.md §4).  Tables are printed to stdout (run with
``-s`` to watch live) and written under ``benchmarks/results/`` so
EXPERIMENTS.md can quote exact regenerated numbers.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).parent.parent


def pytest_addoption(parser):
    parser.addoption(
        "--record-baselines", action="store_true", default=False,
        help="write BENCH_*.json to the repo root (the committed regression "
             "baselines) instead of benchmarks/results/",
    )


def bench_workers() -> int:
    """Worker count for sweep-shaped benchmarks.

    ``REPRO_SWEEP_WORKERS`` overrides; the default saturates the
    machine up to 4 processes.  Results are identical for any value —
    only wall-clock changes.
    """
    env = os.environ.get("REPRO_SWEEP_WORKERS")
    if env:
        return max(1, int(env))
    return min(4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else (os.cpu_count() or 1))


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def record_table(results_dir):
    """Print a result table and persist it under benchmarks/results/."""

    def _record(name: str, text: str) -> None:
        print("\n" + text)
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _record


@pytest.fixture()
def record_json(request, results_dir):
    """Persist machine-readable results under ``benchmarks/results/``.

    ``BENCH_*`` names are committed regression baselines whose ONE
    canonical location is the repo root, where CI and
    ``scripts/check_bench_regression.py`` read them.  They are written
    there only under ``--record-baselines``: a plain ``pytest`` (tier-1
    collects ``bench_obs_overhead.py``) must not rewrite a tracked file.
    """
    record = request.config.getoption("--record-baselines")

    def _record(name: str, payload: dict) -> None:
        text = json.dumps(payload, indent=2, sort_keys=True)
        print("\n" + text)
        target = (REPO_ROOT if record and name.startswith("BENCH_")
                  else results_dir)
        (target / f"{name}.json").write_text(text + "\n")

    return _record


@pytest.fixture()
def sweep_engine():
    """A parallel, uncached SweepEngine for the sweep-shaped benchmarks.

    No disk cache: a benchmark must measure fresh runs.  Parallelism does
    not change any result (the engine's arms are bitwise-identical; see
    ``bench_parallel_sweep.py``), it only shortens the wait.
    """
    from repro.exec import SweepEngine

    return SweepEngine(workers=bench_workers())
