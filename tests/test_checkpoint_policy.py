"""Tests for the checkpoint strategy layer (``repro.checkpoint.policy``).

Covers the :class:`CheckpointPolicy` protocol: serialization round-trips,
canonicalization (``checkpoint=None`` and an explicit default policy build
the same normalized spec and cache key), bitwise identity of the two
routes, the bound :class:`FixedPolicy` schedule against the paper's fixed
path (``tests/oracles/fixed_checkpoint_reference.py``), and the online
adaptation of :class:`AdaptivePolicy` (deterministic replay, churn-driven
re-tuning, checkpoint-traffic savings).
"""

from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    AdaptivePolicy,
    FailureFeed,
    FixedPolicy,
    guardians,
    policy_from_dict,
)
from repro.exec import RunSpec
from tests.oracles.fixed_checkpoint_reference import (FixedCheckpointReference,
                                                      reference_ring)


# ------------------------------------------------------------- serialization


def test_fixed_policy_roundtrip():
    pol = FixedPolicy(count=7, frequency=3)
    data = pol.to_dict()
    assert data["kind"] == "fixed"
    assert policy_from_dict(data) == pol


def test_adaptive_policy_roundtrip():
    pol = AdaptivePolicy(count=4, frequency=2, max_frequency=16,
                         max_replicas=2)
    data = pol.to_dict()
    assert data["kind"] == "adaptive"
    assert policy_from_dict(data) == pol


def test_policy_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        policy_from_dict({"kind": "quantum", "count": 1})


def test_policy_validation():
    with pytest.raises(ValueError):
        FixedPolicy(frequency=0)
    with pytest.raises(ValueError):
        FixedPolicy(count=-1)
    with pytest.raises(ValueError):
        AdaptivePolicy(frequency=0)
    with pytest.raises(ValueError):
        AdaptivePolicy(count=-1)
    with pytest.raises(ValueError):
        AdaptivePolicy(max_frequency=0)
    with pytest.raises(ValueError):
        AdaptivePolicy(max_replicas=0)


def test_runspec_roundtrips_policies():
    for pol in (FixedPolicy(count=3, frequency=2),
                AdaptivePolicy(max_replicas=2), None):
        spec = RunSpec(n=16, peers=2, checkpoint=pol)
        assert RunSpec.from_dict(spec.to_dict()) == spec


# ----------------------------------------------------- the guardian ring


def test_guardian_ring_is_cached_outside_the_policies():
    """Binding and saving leave a policy's fields, equality and dict form
    untouched: the ring is cached by :func:`guardians`, as an immutable
    tuple every caller shares."""
    pol = FixedPolicy(count=3)
    pol.bind(num_tasks=6).begin_save(0, 5)
    assert pol == FixedPolicy(count=3)
    assert asdict(pol) == {"count": 3, "frequency": 5}
    ring = guardians(0, 6, 3)
    assert isinstance(ring, tuple)
    assert guardians(0, 6, 3) is ring


# ------------------------------------------------- canonicalization / keys


def test_normalized_resolves_default_policy_from_config():
    norm = RunSpec(n=32, peers=4).normalized()
    assert norm.checkpoint == FixedPolicy() == FixedPolicy(count=20, frequency=5)
    # the policy is the only route: the config carries no checkpoint knobs
    assert not {"checkpoint_frequency", "backup_count"} & set(asdict(norm.config))
    # ... and an explicit default policy is the same record, same cache key
    explicit = RunSpec(n=32, peers=4, checkpoint=FixedPolicy())
    assert explicit.normalized() == norm
    assert explicit.key() == norm.key()


def test_explicit_default_policy_matches_default_route_bitwise():
    """FixedPolicy(defaults) must reproduce checkpoint=None bit-for-bit."""
    base = RunSpec(n=24, peers=3, disconnections=1, seed=5).run()
    explicit = RunSpec(n=24, peers=3, disconnections=1, seed=5,
                       checkpoint=FixedPolicy(count=20, frequency=5)).run()
    assert base.simulated_time == explicit.simulated_time
    assert base.total_iterations == explicit.total_iterations
    assert base.checkpoints_sent == explicit.checkpoints_sent
    assert base.residual == explicit.residual


# --------------------------------------------------------------- FailureFeed


def test_failure_feed_mtbf_unknown_until_first_failure():
    feed = FailureFeed()
    assert feed.mtbf(10.0) is None


def test_failure_feed_tracks_interarrival_ewma():
    feed = FailureFeed()
    feed.record_failure(1.0)
    feed.record_failure(3.0)  # the first gap seeds the average
    assert feed.mtbf(3.0) == pytest.approx(2.0)
    feed.record_failure(3.5)
    assert feed.mtbf(3.5) == pytest.approx(0.7 * 2.0 + 0.3 * 0.5)


def test_failure_feed_silence_stretches_estimate():
    feed = FailureFeed()
    feed.record_failure(1.0)
    feed.record_failure(1.2)
    # long quiet tail: the estimate must not stay stuck at the storm gap
    assert feed.mtbf(9.2) == pytest.approx(8.0)


def test_failure_feed_checkpoint_cost_tracks_bytes():
    feed = FailureFeed()
    feed.record_checkpoint(1_000_000)
    cost = feed.checkpoint_cost(bandwidth=1e6, overhead=0.5)
    assert cost == pytest.approx(1.5)


# ----------------------------------------------------------- bound policies


def test_fixed_state_round_robins_one_guardian_per_save():
    state = FixedPolicy(count=2, frequency=5).bind(num_tasks=4)
    assert not state.checkpoint_due(0)
    assert state.checkpoint_due(5)
    ring = guardians(0, 4, 2)
    targets = [state.begin_save(0, it)[0] for it in (5, 10, 15, 20)]
    assert targets == [ring[0], ring[1], ring[0], ring[1]]


def test_fixed_state_rollback_resets_cursor():
    state = FixedPolicy(count=2, frequency=5).bind(num_tasks=4)
    for it in (5, 10, 15):
        state.begin_save(0, it)
    state.on_rollback(5)
    assert state.save_count == 1


# A run of iterations, or a rollback to 0 or to an iteration saved at
# before (the only resume points a recovery can restore): ("iterate", n)
# or ("rollback", index into the saved iterations).
_SCHEDULE_OPS = st.lists(
    st.tuples(st.sampled_from(["iterate", "rollback"]),
              st.integers(min_value=0, max_value=12)),
    max_size=12,
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(num_tasks=st.integers(min_value=1, max_value=10),
       count=st.integers(min_value=0, max_value=6),
       frequency=st.integers(min_value=1, max_value=5),
       task=st.integers(min_value=0, max_value=9),
       ops=_SCHEDULE_OPS)
# two saves, then a resume at the first: the cursor must step back
@example(num_tasks=4, count=2, frequency=1, task=1,
         ops=[("iterate", 2), ("rollback", 1), ("iterate", 1)])
def test_fixed_schedule_matches_the_paper_reference(num_tasks, count,
                                                    frequency, task, ops):
    """``FixedPolicy`` binds the one schedule with no failure evidence:
    through any run of iterations and rollbacks it takes the same
    ``(due, targets)`` decisions as the paper's fixed path."""
    task %= num_tasks
    assert guardians(task, num_tasks, count) == tuple(
        reference_ring(task, num_tasks, count))
    state = FixedPolicy(count=count, frequency=frequency).bind(num_tasks)
    oracle = FixedCheckpointReference(task, num_tasks, count, frequency)
    iteration, saved = 0, [0]
    got, want = [], []
    for op, arg in ops:
        if op == "rollback":
            iteration = saved[arg % len(saved)]
            state.on_rollback(iteration)
            oracle.rollback(iteration)
            continue
        for _ in range(arg):
            iteration += 1
            state.on_iteration(now=iteration * 0.01, duration=0.01)
            due = state.checkpoint_due(iteration)
            got.append((iteration, due,
                        state.begin_save(task, iteration) if due else ()))
            due = oracle.due(iteration)
            want.append((iteration, due, oracle.save() if due else ()))
            if due:
                saved.append(iteration)
    assert got == want


def test_adaptive_state_holds_prior_until_evidence():
    feed = FailureFeed()
    state = AdaptivePolicy(frequency=5).bind(num_tasks=4, feed=feed)
    for i in range(50):
        state.on_iteration(now=i * 0.01, duration=0.01)
    assert state.interval == 5
    assert state.replicas == 1
    assert state.retunes == 0


def test_adaptive_state_retunes_after_failures():
    feed = FailureFeed()
    pol = AdaptivePolicy(frequency=5, max_frequency=40)
    state = pol.bind(num_tasks=8, feed=feed)
    # a churn burst: failures 30 ms apart while iterations take 5 ms
    now = 0.0
    for i in range(10):
        now += 0.005
        if i in (3, 6, 9):
            feed.record_failure(now)
        feed.record_checkpoint(5_000)
        state.on_iteration(now, duration=0.005)
    assert state.retunes >= 1
    tight = state.interval
    assert 1 <= tight <= 40
    # a long quiet tail relaxes the schedule again
    for _ in range(200):
        now += 0.005
        state.on_iteration(now, duration=0.005)
    assert state.interval >= tight


def test_adaptive_begin_save_fans_out_replicas():
    feed = FailureFeed()
    state = AdaptivePolicy(count=4, max_replicas=3).bind(num_tasks=8,
                                                         feed=feed)
    state.replicas = 3
    targets = state.begin_save(0, 5)
    assert len(targets) == 3
    assert len(set(targets)) == 3  # consecutive ring slots are distinct
    assert set(targets) <= set(guardians(0, 8, 4))


# ------------------------------------------------------- end-to-end adaptive


def test_adaptive_run_is_deterministic():
    spec = RunSpec(n=24, peers=3, disconnections=2, seed=3,
                   checkpoint=AdaptivePolicy())
    a, b = spec.run(), spec.run()
    assert a.simulated_time == b.simulated_time
    assert a.total_iterations == b.total_iterations
    assert a.checkpoints_sent == b.checkpoints_sent
    assert a.checkpoint_bytes == b.checkpoint_bytes


def test_adaptive_cuts_checkpoint_traffic_under_churn():
    fixed = RunSpec(n=24, peers=3, disconnections=2, seed=3).run()
    adaptive = RunSpec(n=24, peers=3, disconnections=2, seed=3,
                       checkpoint=AdaptivePolicy()).run()
    assert adaptive.converged and fixed.converged
    assert adaptive.checkpoint_bytes < fixed.checkpoint_bytes
