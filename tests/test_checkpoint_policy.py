"""Tests for the checkpoint strategy layer (``repro.checkpoint.policy``).

Covers :class:`FixedPolicy`: serialization round-trips, canonicalization
(``checkpoint=None`` and an explicit default policy build the same
normalized spec and cache key), bitwise identity of the two routes, the
bound schedule against the paper's fixed path
(``tests/oracles/fixed_checkpoint_reference.py``), and a longer interval's
checkpoint-traffic saving under churn.
"""

from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.checkpoint import FixedPolicy, guardians
from repro.exec import RunSpec
from tests.oracles.fixed_checkpoint_reference import (FixedCheckpointReference,
                                                      reference_ring)


# ------------------------------------------------------------- serialization


def test_fixed_policy_roundtrip():
    pol = FixedPolicy(count=7, frequency=3)
    data = asdict(pol)
    assert data == {"count": 7, "frequency": 3}
    assert FixedPolicy(**data) == pol


def test_policy_validation():
    with pytest.raises(ValueError):
        FixedPolicy(frequency=0)
    with pytest.raises(ValueError):
        FixedPolicy(count=-1)


def test_runspec_roundtrips_policies():
    for pol in (FixedPolicy(count=3, frequency=2), None):
        spec = RunSpec(n=16, peers=2, checkpoint=pol)
        assert RunSpec.from_dict(spec.to_dict()) == spec


def test_runspec_from_dict_rejects_an_unknown_policy_field():
    """A policy dict with a field ``FixedPolicy`` lacks is refused, not
    silently dropped the way unknown ``RunSpec`` fields are."""
    data = RunSpec(n=16, peers=2, checkpoint=FixedPolicy()).to_dict()
    data["checkpoint"]["max_replicas"] = 3
    with pytest.raises(TypeError):
        RunSpec.from_dict(data)


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
            due = state.checkpoint_due(iteration)
            got.append((iteration, due,
                        state.begin_save(task, iteration) if due else ()))
            due = oracle.due(iteration)
            want.append((iteration, due, oracle.save() if due else ()))
            if due:
                saved.append(iteration)
    assert got == want


def test_longer_interval_cuts_checkpoint_traffic_under_churn():
    paper = RunSpec(n=24, peers=3, disconnections=2, seed=3).run()
    longer = RunSpec(n=24, peers=3, disconnections=2, seed=3,
                     checkpoint=FixedPolicy(frequency=30)).run()
    assert longer.converged and paper.converged
    assert longer.checkpoint_bytes < paper.checkpoint_bytes
