"""Unit tests for the RunTelemetry instrument."""

from repro.obs import RunTelemetry
from repro.obs.instruments import RecoveryRecord


def _iterate(t, task_id, fresh):
    """What a Daemon's runner writes after one iteration."""
    t.iterations[task_id] += 1
    if not fresh:
        t.useless_iterations[task_id] += 1


def test_iteration_accounting():
    t = RunTelemetry()
    _iterate(t, 0, fresh=True)
    _iterate(t, 0, fresh=False)
    _iterate(t, 1, fresh=False)
    assert t.total_iterations == 3
    assert t.total_useless == 2
    assert t.useless_fraction == 2 / 3
    assert t.iterations[0] == 2 and t.useless_iterations[1] == 1
    assert t.max_task_iterations == 2
    assert t.mean_task_iterations == 1.5


def test_empty_telemetry_is_well_defined():
    t = RunTelemetry()
    assert t.total_iterations == 0
    assert t.useless_fraction == 0.0
    assert t.max_task_iterations == 0
    assert t.mean_task_iterations == 0.0
    assert t.execution_time is None
    assert t.restarts_from_zero == 0


def test_recovery_records():
    t = RunTelemetry()
    t.record_recovery(1.5, task_id=2, resumed_iteration=10, from_scratch=False)
    t.record_recovery(3.0, task_id=2, resumed_iteration=0, from_scratch=True)
    assert len(t.recoveries) == 2
    assert t.restarts_from_zero == 1
    assert t.recoveries[0] == RecoveryRecord(1.5, 2, 10, False)


def test_execution_time():
    t = RunTelemetry()
    t.launched_at = 2.0
    t.converged_at = 7.5
    assert t.execution_time == 5.5


# -- the plain record -------------------------------------------------------


def test_counts_are_plain_ints():
    t = RunTelemetry()
    t.data_messages_sent += 1
    t.data_messages_sent += 1
    t.checkpoints_sent += 1
    t.convergence_messages += 3
    assert (t.data_messages_sent, t.checkpoints_sent,
            t.convergence_messages) == (2, 1, 3)
    assert type(t.data_messages_sent) is int


def test_reading_an_idle_task_does_not_count_it():
    t = RunTelemetry()
    _iterate(t, 0, fresh=True)
    assert t.iterations[3] == 0 and t.useless_iterations[0] == 0
    assert dict(t.iterations) == {0: 1} and dict(t.useless_iterations) == {}
    assert t.mean_task_iterations == 1.0


def test_facade_gauges_round_trip():
    t = RunTelemetry()
    assert t.converged_at is None
    t.launched_at = 1.0
    t.converged_at = 3.0
    assert t.execution_time == 2.0
    t.converged_at = None  # clearing must work too
    assert t.converged_at is None
    assert t.execution_time is None


def test_wasted_iterations_count_work_beyond_the_frontier():
    t = RunTelemetry()
    for _ in range(5):
        _iterate(t, 0, fresh=True)
    assert t.wasted_iterations == 0  # no frontier before the halt
    t.frontier[0] = 3
    assert t.wasted_iterations == 2


def test_counting_costs_at_most_one_obs_call_per_iteration():
    """Counting is ``+=`` on plain fields: a run spends no more than one
    call inside ``repro.obs`` per task iteration (the untraced path)."""
    import cProfile
    import pathlib
    import pstats

    import repro.obs
    from repro.exec import RunSpec

    obs_dir = str(pathlib.Path(repro.obs.__file__).parent) + "/"
    profile = cProfile.Profile()
    result = profile.runcall(
        RunSpec(n=24, peers=3, seed=7, disconnections=2).execute)
    calls = sum(primitive for (path, _, _), (primitive, *_)
                in pstats.Stats(profile).stats.items()
                if path.startswith(obs_dir))
    assert result.total_iterations > 0 and result.recoveries > 0
    assert calls / result.total_iterations <= 1.0
