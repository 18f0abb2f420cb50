"""Tests for ``repro.exec``: spec identity, engine parity, run cache.

The contract under test: parallelism and caching are wall-clock
optimizations only.  A spec executed serially, on a process pool, or
recalled from cache must produce field-for-field identical results.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.exec import (
    RunCache,
    RunSpec,
    SweepEngine,
    code_fingerprint,
    default_cache_dir,
)
from repro.experiments import figure7_sweep
from repro.experiments.driver import RUN_COUNTER, RunResult
from repro.obs.report import RunReport
from repro.obs.instruments import RecoveryRecord

#: small enough to keep this module in tier-1 time budgets
TINY = dict(n=24, peers=3, seed=5)


# -- RunSpec identity ---------------------------------------------------------


def test_key_is_stable_under_normalization():
    spec = RunSpec(**TINY)
    assert spec.key() == spec.normalized().key()
    assert spec.key() == spec.normalized().normalized().key()


def test_key_separates_different_runs():
    base = RunSpec(**TINY)
    keys = {
        base.key(),
        dataclasses.replace(base, seed=6).key(),
        dataclasses.replace(base, n=32).key(),
        dataclasses.replace(base, disconnections=1).key(),
        dataclasses.replace(base, collect=False).key(),
    }
    assert len(keys) == 5


def test_key_covers_the_source_tree():
    # the fingerprint is part of the address: editing repro/ source must
    # change every key, silently invalidating stale cache entries
    import hashlib
    import json

    fp = code_fingerprint()
    assert len(fp) == 16
    spec = RunSpec(**TINY)
    payload = spec.normalized().to_dict()
    payload["__fingerprint__"] = fp
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert spec.key() == hashlib.sha256(blob.encode()).hexdigest()[:32]


def test_spec_roundtrips_through_dict():
    spec = RunSpec(n=32, peers=4, disconnections=2, seed=9).normalized()
    again = RunSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.key() == spec.key()


def test_calibration_spec_is_the_churn_free_sibling():
    spec = RunSpec(**TINY, disconnections=2)
    assert spec.needs_calibration()
    calib = spec.calibration_spec()
    assert calib.disconnections == 0
    assert not calib.needs_calibration()
    # an explicit window needs no calibration
    assert not dataclasses.replace(spec, churn_window=1.0).needs_calibration()


# -- RunResult transport ------------------------------------------------------


def _fake_result(**overrides) -> RunResult:
    fields = dict(
        n=24, peers=3, disconnections_requested=1, disconnections_executed=1,
        seed=5, overlap=2, converged=True, simulated_time=1.25,
        total_iterations=300, mean_iterations_per_task=100.0,
        useless_fraction=0.125, residual=3.7e-7, recoveries=1,
        restarts_from_zero=0, replacements=1, checkpoints_sent=42,
        data_messages=900, run_report=None,
    )
    fields.update(overrides)
    return RunResult(**fields)


def test_runresult_roundtrip_without_report_and_none_fields():
    # the unconverged shape: None residual and simulated_time, no report
    result = _fake_result(converged=False, simulated_time=None, residual=None)
    again = RunResult.from_dict(result.to_dict())
    assert again == result
    assert again.run_report is None
    assert again.simulated_time is None and again.residual is None


def test_runresult_roundtrip_with_full_report():
    report = RunReport(
        app_id="rt", converged=True, launched_at=0.5, converged_at=1.75,
        execution_time=1.25, total_iterations=300, useless_fraction=0.125,
        data_messages_sent=900, checkpoints_sent=42, convergence_messages=7,
        recoveries=[
            RecoveryRecord(time=0.9, task_id=1, resumed_iteration=40,
                           from_scratch=False),
            RecoveryRecord(time=1.1, task_id=2, resumed_iteration=0,
                           from_scratch=True),
        ],
        restarts_from_zero=1, heartbeat_misses=2, evictions=1, replacements=1,
        net_stats={"sent": 950, "dropped": 3},
        event_counts={("p2p", "heartbeat"): 88, ("net", "send"): 950},
    )
    result = _fake_result(run_report=report)
    data = result.to_dict()
    # the payload must be pure JSON (process transport + cache format)
    import json

    again = RunResult.from_dict(json.loads(json.dumps(data)))
    assert again == result
    assert again.run_report == report
    assert again.run_report.recoveries[1].from_scratch is True
    assert again.run_report.event_counts[("net", "send")] == 950


def test_real_run_roundtrips_exactly():
    result = RunSpec(**TINY).run()
    assert RunResult.from_dict(result.to_dict()) == result


# -- SweepEngine parity -------------------------------------------------------


def test_serial_engine_matches_direct_driver_call():
    direct = RunSpec(**TINY).run()
    engine = SweepEngine(workers=1)
    via_engine = engine.run(RunSpec(**TINY))
    assert via_engine == direct
    assert engine.stats["runs_executed"] == 1


def test_engine_memo_deduplicates_identical_specs():
    engine = SweepEngine(workers=1)
    a, b = engine.map([RunSpec(**TINY), RunSpec(**TINY)])
    assert a == b
    assert engine.stats["runs_executed"] == 1
    assert engine.stats["memo_hits"] == 1


def test_engine_shares_churn_calibration_across_levels():
    engine = SweepEngine(workers=1)
    specs = [RunSpec(**TINY, disconnections=d, collect=False) for d in (1, 2)]
    runs = engine.map(specs)
    # 1 shared calibration + 2 churn runs, not 2 + 2
    assert engine.stats["runs_executed"] == 3
    # and the result equals the driver's own calibrate-then-run path
    direct = RunSpec(**TINY, disconnections=1, collect=False).run()
    assert runs[0] == direct


def test_parallel_figure7_identical_to_serial():
    grid = dict(ns=(24,), disconnections=(0, 1), peers=3, repeats=1,
                base_seed=0)
    serial = figure7_sweep(engine=SweepEngine(workers=1), **grid)
    parallel = figure7_sweep(engine=SweepEngine(workers=4), **grid)
    assert len(serial.runs) == len(parallel.runs)
    for s, p in zip(serial.runs, parallel.runs):
        assert dataclasses.asdict(s) == dataclasses.asdict(p)
    assert serial.times == parallel.times


def test_engine_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        SweepEngine(workers=0)


def test_engine_merges_run_telemetry_into_registry():
    engine = SweepEngine(workers=1)
    result = engine.run(RunSpec(**TINY))
    engine.run(RunSpec(**TINY))  # a memo hit adds no run's telemetry
    assert engine.specs_requested == 2
    assert engine.runs_executed == 1
    assert engine.memo_hits == 1
    assert engine.iterations == result.total_iterations
    assert engine.data_messages == result.data_messages


# -- RunCache -----------------------------------------------------------------


def test_cache_hit_returns_identical_content_with_zero_work(tmp_path):
    cache_dir = tmp_path / "cache"
    first_engine = SweepEngine(workers=1, cache=RunCache(cache_dir))
    first = first_engine.run(RunSpec(**TINY))
    assert first_engine.stats["runs_executed"] == 1

    second_engine = SweepEngine(workers=1, cache=RunCache(cache_dir))
    before = RUN_COUNTER.count
    second = second_engine.run(RunSpec(**TINY))
    # zero simulation work: the driver never ran
    assert RUN_COUNTER.count == before
    assert second_engine.stats["runs_executed"] == 0
    assert second_engine.stats["disk_hits"] == 1
    assert second == first


def test_cache_stats_and_clear(tmp_path):
    cache = RunCache(tmp_path / "cache")
    engine = SweepEngine(workers=1, cache=cache)
    engine.run(RunSpec(**TINY))
    stats = cache.stats()
    assert stats["entries"] == 1
    assert stats["entries_current_code"] == 1
    assert stats["misses"] == 1  # the pre-execution lookup
    assert stats["bytes"] > 0
    assert cache.clear() == 1
    assert cache.stats()["entries"] == 0


def test_default_cache_dir_honours_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
    assert default_cache_dir() == tmp_path / "env-cache"
    # RunCache(None) routes through the same default
    assert RunCache(None).root == tmp_path / "env-cache"


def test_cache_stats_distinguish_foreign_entries(tmp_path):
    import json

    cache = RunCache(tmp_path / "cache")
    SweepEngine(workers=1, cache=cache).run(RunSpec(**TINY))
    # a leftover entry from an older source tree: its key can never be
    # addressed again (key() folds in the current fingerprint), it just
    # sits on disk until `cache clear`
    foreign = cache.root / ("f" * 32 + ".run.json")
    foreign.write_text(json.dumps(
        {"fingerprint": "0" * 16, "spec": {}, "result": {}}))
    stats = cache.stats()
    assert stats["entries"] == 2
    assert stats["entries_current_code"] == 1
    assert cache.clear() == 2
