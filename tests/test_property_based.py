"""Property-based tests (hypothesis) on core data structures and invariants."""

import functools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checkpoint import Backup, FixedPolicy, choose_latest, guardians
from repro.convergence import LocalConvergenceDetector
from repro.des import Simulator
from repro.net import Address, Network
from repro.numerics import (
    BlockDecomposition,
    conjugate_gradient,
    poisson_matrix,
)
from repro.rmi import RemoteObject, RmiRuntime, Stub, oneway_size, remote
from repro.rmi import invocation
from repro.rmi.invocation import CallMessage, OnewayMessage, ReplyMessage
from repro.util.rng import RngTree, derive_seed
from repro.util.serialization import clone_state, measured_size
from tests.oracles.payload_reference import envelope_size

COMMON = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------- kernel


@COMMON
@given(st.lists(st.floats(min_value=0.001, max_value=100.0), min_size=1,
                max_size=30))
def test_des_timeouts_fire_in_sorted_order(delays):
    sim = Simulator()
    fired = []

    def waiter(env, d):
        yield env.timeout(d)
        fired.append(d)

    for d in delays:
        sim.process(waiter(sim, d))
    sim.run()
    assert fired == sorted(delays)
    assert sim.now == max(delays)


@COMMON
@given(
    st.lists(st.floats(min_value=0.001, max_value=10.0), min_size=1, max_size=10),
    st.floats(min_value=0.0, max_value=15.0),
)
def test_des_run_until_deadline_never_overshoots(delays, deadline):
    sim = Simulator()

    def waiter(env, d):
        yield env.timeout(d)

    for d in delays:
        sim.process(waiter(sim, d))
    sim.run(until=deadline)
    assert sim.now == deadline


# ------------------------------------------------------------------------ rng


@COMMON
@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=8),
       st.text(min_size=1, max_size=8))
def test_rng_children_deterministic_and_distinct(seed, a, b):
    t = RngTree(seed)
    assert t.child(a).uniform() == RngTree(seed).child(a).uniform()
    if a != b:
        # distinct labels should give distinct seeds (SHA-256 collision-free
        # in practice)
        assert derive_seed(seed, a) != derive_seed(seed, b)


# -------------------------------------------------------------- serialization


@COMMON
@given(st.integers(min_value=0, max_value=10_000))
def test_measured_size_monotone_in_array_length(k):
    assert measured_size(np.zeros(k + 1)) > measured_size(np.zeros(k)) - 1


@COMMON
@given(
    st.dictionaries(
        st.text(max_size=5),
        st.one_of(
            st.integers(), st.floats(allow_nan=False), st.text(max_size=10),
            st.lists(st.integers(), max_size=5),
        ),
        max_size=6,
    )
)
def test_clone_state_roundtrips_plain_data(state):
    snap = clone_state(state)
    assert snap == state
    assert snap is not state or not state


# ------------------------------------------------------------- rmi envelopes

_texts = st.text(max_size=6)  # non-ASCII included: charged by UTF-8 length
_names = st.text(min_size=1, max_size=6)
_addresses = st.builds(Address, _names, st.integers(1, 65535))
_arrays = st.integers(0, 5).map(np.zeros)
_leaves = (
    st.none() | st.booleans() | st.integers() | st.floats() | _texts
    | _arrays | _addresses | st.builds(Stub, _names, _addresses)
    | st.builds(Backup, st.integers(0, 9), st.integers(0, 9),
                st.fixed_dictionaries({"x": _arrays}), _texts)
)
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.tuples(inner, inner)
    | st.dictionaries(_texts, inner, max_size=3),
    max_leaves=6,
) | st.builds(  # nested past depth 6, where the walk falls back to pickle
    lambda leaf, depth: functools.reduce(lambda x, _: [x], range(depth), leaf),
    st.integers() | _texts, st.integers(5, 9),
)


class _Echo(RemoteObject):
    def __init__(self, value):
        self.value = value

    @remote
    def echo(self, *args, **kwargs):
        return self.value


#: keyword names ``RmiRuntime.call`` and the served method bind themselves
_CALL_PARAMETERS = {"self", "stub", "method", "timeout"}


@COMMON
@given(object_name=_names, method=_names,
       args=st.lists(_values, max_size=4).map(tuple),
       kwargs=st.dictionaries(
           _texts.filter(lambda key: key not in _CALL_PARAMETERS), _values,
           max_size=2),
       value=_values)
def test_rmi_sizes_its_envelopes_as_measured_size_would(
        object_name, method, args, kwargs, value):
    assert oneway_size(args, kwargs) == envelope_size(
        OnewayMessage(object_name, method, args, kwargs))
    # a keyword argument costs what the same value costs by position
    assert oneway_size((), {"k": value}) == oneway_size((value,))

    sim = Simulator()
    net = Network(sim)
    client = RmiRuntime(net, net.new_host("a"), 5000)
    server = RmiRuntime(net, net.new_host("b"), 5000)
    stub = server.serve(_Echo(value), object_name)
    sent, send = [], net.send
    net.send = lambda *a, **kw: sent.append(send(*a, **kw))
    next_id = next(invocation._call_ids)
    answer = client.call(stub, "echo", *args, **kwargs)
    sim.run()
    assert answer.value is value
    call, reply = sent
    assert isinstance(call.payload, CallMessage)
    assert isinstance(reply.payload, ReplyMessage)
    assert call.size == envelope_size(call.payload)
    assert reply.size == envelope_size(reply.payload)
    # sizing a call measures a probe envelope: it must not draw an id
    assert call.payload.call_id == next_id + 1


# --------------------------------------------------------------------- policy


@COMMON
@given(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=20),
)
def test_backup_policy_invariants(num_tasks, count, frequency):
    policy = FixedPolicy(count=count, frequency=frequency)
    for task_id in range(num_tasks):
        peers = guardians(task_id, num_tasks, count)
        assert task_id not in peers
        assert len(peers) == len(set(peers)) == min(count, num_tasks - 1)
        assert all(0 <= p < num_tasks for p in peers)
        # round-robin covers every guardian exactly once per cycle
        schedule = policy.bind(num_tasks)
        cycle = [t for i in range(len(peers))
                 for t in schedule.begin_save(task_id, i)]
        assert sorted(cycle) == sorted(peers)
    # checkpoint_due fires exactly on multiples of frequency (except 0)
    schedule = policy.bind(num_tasks)
    due = []
    for i in range(frequency * 3 + 1):
        if schedule.checkpoint_due(i):
            due.append(i)
            schedule.begin_save(0, i)
    assert due == [frequency, 2 * frequency, 3 * frequency]


@COMMON
@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=30),
        st.one_of(st.none(), st.tuples(st.integers(min_value=0, max_value=5),
                                       st.integers(min_value=0, max_value=1000))),
        max_size=20,
    )
)
def test_choose_latest_picks_max_or_none(offers):
    best = choose_latest(offers)
    values = [v for v in offers.values() if v is not None]
    if not values:
        assert best is None
    else:
        assert offers[best] == max(values)


# ----------------------------------------------------------------- detection


@COMMON
@given(
    st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=100),
    st.floats(min_value=1e-6, max_value=1.0),
    st.integers(min_value=1, max_value=10),
)
def test_local_detector_matches_reference_model(distances, threshold, window):
    det = LocalConvergenceDetector(threshold, window)
    streak = 0
    state = False
    for d in distances:
        flipped = det.update(d)
        streak = streak + 1 if d < threshold else 0
        expected = streak >= window
        assert det.stable == expected
        assert flipped == (expected != state)
        state = expected


# ------------------------------------------------------------------ numerics


@st.composite
def spd_system(draw):
    """Random diagonally dominant SPD system (guaranteed solvable by CG)."""
    n = draw(st.integers(min_value=2, max_value=25))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    A = rng.normal(size=(n, n))
    A = A @ A.T + n * np.eye(n)  # SPD with margin
    b = rng.normal(size=n)
    return sp.csr_matrix(A), b


@COMMON
@given(spd_system())
def test_cg_solves_random_spd_systems(system):
    A, b = system
    result = conjugate_gradient(A, b, tol=1e-12, max_iter=2000)
    assert result.converged
    ref = np.linalg.solve(A.toarray(), b)
    assert np.allclose(result.x, ref, atol=1e-6)


@COMMON
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=3),
)
def test_block_decomposition_invariants(n, nblocks, overlap):
    nblocks = min(nblocks, n)
    A = poisson_matrix(n, scaled=False)
    b = np.arange(float(n * n))
    widths_ok = overlap + 1 <= n // nblocks
    if nblocks > 1 and overlap > 0 and not widths_ok:
        with pytest.raises(ValueError):
            BlockDecomposition(A, b, nblocks=nblocks, line=n, overlap=overlap)
        return
    d = BlockDecomposition(A, b, nblocks=nblocks, line=n, overlap=overlap)
    # ownership partitions [0, n^2)
    owned = np.zeros(n * n, dtype=int)
    for blk in d.blocks:
        owned[blk.own_start : blk.own_end] += 1
    assert (owned == 1).all()
    # extended ranges contain owned ranges
    for blk in d.blocks:
        assert blk.ext_start <= blk.own_start <= blk.own_end <= blk.ext_end
        # every needed external column is owned by exactly one neighbour
        for src, positions in blk.ext_sources.items():
            cols = blk.ext_cols[positions]
            src_blk = d.blocks[src]
            assert np.all((cols >= src_blk.own_start) & (cols < src_blk.own_end))
    # assembling each block's slice of an arbitrary global vector restores it
    x = np.arange(float(n * n)) * 2.0 + 1.0
    locals_ = [x[blk.ext_start : blk.ext_end].copy() for blk in d.blocks]
    assert np.array_equal(d.assemble(locals_), x)
    # exchange volume is independent of the overlap
    if nblocks > 1:
        d0 = BlockDecomposition(A, b, nblocks=nblocks, line=n, overlap=0)
        for k in range(nblocks):
            assert d.exchange_volume(k) == d0.exchange_volume(k)


# -------------------------------------------------------------------- network


@COMMON
@given(
    st.floats(min_value=0.0, max_value=0.1),
    st.integers(min_value=0, max_value=10_000_000),
    st.integers(min_value=0, max_value=10_000_000),
)
def test_link_delay_monotone_in_bytes(latency, b1, b2):
    from repro.des import Simulator
    from repro.net.host import Host
    from repro.net.link import UniformLinkModel

    sim = Simulator()
    a, b = Host(sim, "a"), Host(sim, "b")
    model = UniformLinkModel(latency=latency)
    lo, hi = sorted([b1, b2])
    assert model.delay(a, b, lo) <= model.delay(a, b, hi)
    assert model.delay(a, b, lo) >= latency


@COMMON
@given(st.integers(min_value=0, max_value=1_000_000))
def test_heterogeneous_link_symmetric(nbytes):
    from repro.des import Simulator
    from repro.net.host import Host
    from repro.net.link import (
        FAST_ETHERNET,
        GIGABIT_ETHERNET,
        HeterogeneousLinkModel,
    )

    sim = Simulator()
    fast = Host(sim, "f", tags=(GIGABIT_ETHERNET.name,))
    slow = Host(sim, "s", tags=(FAST_ETHERNET.name,))
    model = HeterogeneousLinkModel()
    assert model.delay(fast, slow, nbytes) == model.delay(slow, fast, nbytes)


@COMMON
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=10),
)
def test_churn_schedule_is_sorted_and_bounded(n_disc, seed, horizon_scale):
    from repro.churn import PaperChurn

    horizon = float(horizon_scale)
    events = PaperChurn(n_disc).schedule(RngTree(seed), horizon)
    assert len(events) == n_disc
    times = [e.time for e in events]
    assert times == sorted(times)
    assert all(0.05 * horizon <= t <= 0.85 * horizon for t in times)
