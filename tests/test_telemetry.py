"""Unit tests for the RunTelemetry instrument."""

from repro.obs import RunTelemetry
from repro.obs.instruments import RecoveryRecord


def test_iteration_accounting():
    t = RunTelemetry()
    t.record_iteration(0, fresh=True)
    t.record_iteration(0, fresh=False)
    t.record_iteration(1, fresh=False)
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


# -- the metrics-registry façade ---------------------------------------------


def test_facade_counters_back_onto_registry():
    t = RunTelemetry()
    t.data_messages_sent += 1
    t.data_messages_sent += 1
    t.checkpoints_sent += 1
    t.convergence_messages += 3
    assert t.data_messages_sent == 2
    assert t.registry.get("data_messages_sent").total == 2
    assert t.registry.get("checkpoints_sent").total == 1
    assert t.registry.get("convergence_messages").total == 3


def test_facade_iterations_live_in_registry():
    t = RunTelemetry()
    t.record_iteration(0, fresh=True)
    t.record_iteration(0, fresh=False)
    c = t.registry.get("task_iterations")
    assert c.by_label("task") == {0: 2.0}
    assert t.registry.get("task_useless_iterations").total == 1


def test_facade_gauges_round_trip():
    t = RunTelemetry()
    assert t.converged_at is None
    t.launched_at = 1.0
    t.converged_at = 3.0
    assert t.registry.get("launched_at").value() == 1.0
    assert t.registry.get("converged_at").value() == 3.0
    t.converged_at = None  # clearing must work too
    assert t.converged_at is None
    assert t.execution_time is None


def test_facade_recoveries_counted_in_registry():
    t = RunTelemetry()
    t.record_recovery(1.0, task_id=0, resumed_iteration=5, from_scratch=False)
    t.record_recovery(2.0, task_id=1, resumed_iteration=0, from_scratch=True)
    assert t.registry.get("recoveries").total == 2
    assert t.registry.get("restarts_from_scratch").total == 1


def test_shared_registry_injection():
    from repro.obs import MetricsRegistry

    reg = MetricsRegistry()
    t = RunTelemetry(registry=reg)
    t.record_iteration(0, fresh=True)
    assert t.registry is reg
    assert reg.get("task_iterations").total == 1

