"""Shared benchmark utilities.

Every benchmark regenerates one table/figure/claim from the paper's
evaluation (see DESIGN.md §4) and asserts its own bounds.  Tables are
printed to stdout (run with ``-s`` to watch live) and written under
``benchmarks/results/`` so EXPERIMENTS.md can quote exact regenerated
numbers.  Wall-clock is gated by the perf ledger (``BENCHMARK.json``),
not here.
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


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
def sweep_engine():
    """A parallel, uncached SweepEngine for the sweep-shaped benchmarks.

    No disk cache: a benchmark must measure fresh runs.  Parallelism does
    not change any result (the engine's arms are bitwise-identical; see
    ``bench_parallel_sweep.py``), it only shortens the wait, so the pool
    saturates the machine up to 4 processes.
    """
    from repro.exec import SweepEngine

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return SweepEngine(workers=min(4, cpus))
