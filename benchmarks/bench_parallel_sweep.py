"""Parallel sweep-engine benchmark: process-pool fan-out + run cache.

The quick Figure-7 grid (2 sizes x 3 churn levels, the ``repro-cli
figure7 --quick`` workload) is executed three times:

* **serial** — ``SweepEngine(workers=1)``, no cache: the reference arm,
  byte-for-byte the historical serial loop;
* **parallel** — ``workers=4`` over a fresh on-disk :class:`RunCache`:
  measures the process-pool speedup while populating the cache;
* **cached** — the same sweep again against the now-warm cache: every
  cell is a content-address hit, zero simulation work.

Assertions:

* all three arms return field-for-field identical ``RunResult`` lists and
  aggregate tables — parallelism and caching are wall-clock optimizations
  only;
* the cached rerun does zero simulation work (run counter + engine stats)
  and completes in under ``MAX_CACHED_FRACTION`` of the serial time;
* on a machine with >= ``WORKERS`` usable CPUs the parallel arm is at
  least ``MIN_PARALLEL_SPEEDUP`` x faster than serial.  On smaller
  machines the target scales down (there is nothing to overlap on one
  core).

The grid's deterministic results go to ``results/parallel_sweep.txt``.
"""

from __future__ import annotations

import os
import time

from repro.exec import RunCache, SweepEngine
from repro.experiments import figure7_sweep
from repro.experiments.driver import RUN_COUNTER
from repro.experiments.report import format_table

#: the quick Figure-7 grid (matches ``repro-cli figure7 --quick``)
GRID = dict(ns=(40, 64), disconnections=(0, 2, 4), peers=8, repeats=1,
            base_seed=0)

WORKERS = 4
MIN_PARALLEL_SPEEDUP = 2.0
#: a fully-cached rerun must cost less than this fraction of serial time
MAX_CACHED_FRACTION = 0.05


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _timed(engine):
    start = time.perf_counter()
    result = figure7_sweep(engine=engine, **GRID)
    return result, time.perf_counter() - start


def test_parallel_sweep_speedup_and_cache(record_table, tmp_path):
    cache_dir = tmp_path / "run-cache"

    serial, t_serial = _timed(SweepEngine(workers=1))
    parallel, t_parallel = _timed(
        SweepEngine(workers=WORKERS, cache=RunCache(cache_dir)))

    cached_engine = SweepEngine(workers=WORKERS, cache=RunCache(cache_dir))
    runs_before = RUN_COUNTER.count
    cached, t_cached = _timed(cached_engine)

    # parallelism and caching must be invisible in the results
    assert parallel.runs == serial.runs, "parallel arm diverged from serial"
    assert cached.runs == serial.runs, "cached arm diverged from serial"
    assert parallel.times == serial.times == cached.times
    assert all(r.converged for r in serial.runs)

    # the cached arm did zero simulation work: no driver calls in this
    # process, nothing executed by the engine — disk hits only
    assert RUN_COUNTER.count == runs_before
    assert cached_engine.stats["runs_executed"] == 0
    assert cached_engine.stats["disk_hits"] == len(cached.runs)

    cpus = _cpus()
    speedup = t_serial / t_parallel
    cached_fraction = t_cached / t_serial
    record_table("parallel_sweep", format_table(
        ["n", "disconnections", "simulated time (s)", "iterations"],
        [[r.n, r.disconnections_requested, r.simulated_time,
          r.total_iterations] for r in serial.runs],
        title=f"quick Figure-7 grid: serial, {WORKERS}-worker and cached "
              f"arms identical; cached arm ran 0 of {len(serial.runs)}",
    ))

    assert cached_fraction < MAX_CACHED_FRACTION, (
        f"cached rerun cost {cached_fraction:.1%} of serial "
        f"({t_cached:.2f}s vs {t_serial:.2f}s)"
    )
    if cpus >= WORKERS:
        assert speedup >= MIN_PARALLEL_SPEEDUP, (
            f"parallel sweep speedup regressed: {speedup:.2f}x < "
            f"{MIN_PARALLEL_SPEEDUP}x at {WORKERS} workers "
            f"(serial {t_serial:.2f}s, parallel {t_parallel:.2f}s)"
        )
    elif cpus >= 2:
        assert speedup >= 1.25, (
            f"parallel sweep speedup {speedup:.2f}x on {cpus} CPUs"
        )
    else:
        # single core: nothing to overlap — require bounded pool overhead
        assert t_parallel <= 1.6 * t_serial, (
            f"pool overhead too high on 1 CPU: {t_parallel:.2f}s vs "
            f"serial {t_serial:.2f}s"
        )
