"""Tests for repro.util: RNG trees, stats, serialization sizing, timers."""

import math

import numpy as np
import pytest

from repro.util import (
    Histogram,
    OnlineStats,
    RngTree,
    WallTimer,
    clone_state,
    derive_seed,
    measured_size,
    summarize,
)


# ------------------------------------------------------------------------ rng


def test_derive_seed_is_deterministic():
    assert derive_seed(42, "churn") == derive_seed(42, "churn")
    assert derive_seed(42, "churn") != derive_seed(43, "churn")
    assert derive_seed(42, "churn") != derive_seed(42, "links")


def test_derive_seed_path_sensitivity():
    # ("a", "bc") must differ from ("ab", "c")
    assert derive_seed(1, "a", "bc") != derive_seed(1, "ab", "c")


def test_rng_tree_children_independent_of_draw_order():
    t1 = RngTree(7)
    _ = t1.uniform()  # consume parent randomness
    c1 = t1.child("x")
    t2 = RngTree(7)
    c2 = t2.child("x")  # no parent draw
    assert c1.uniform() == c2.uniform()


def test_rng_tree_same_path_same_stream():
    a = RngTree(5).child("net", 3)
    b = RngTree(5).child("net", 3)
    assert [a.integers(0, 100) for _ in range(5)] == [
        b.integers(0, 100) for _ in range(5)
    ]


def test_rng_tree_choice_and_shuffle():
    t = RngTree(1)
    seq = list(range(10))
    assert t.child("c").choice(seq) in seq
    shuffled = t.child("s").shuffled(seq)
    assert sorted(shuffled) == seq
    with pytest.raises(ValueError):
        t.choice([])
    with pytest.raises(ValueError):
        t.child()


def test_rng_exponential_positive():
    t = RngTree(3)
    assert all(t.exponential(5.0) > 0 for _ in range(20))


# ----------------------------------------------------------------------- stats


def test_online_stats_matches_numpy():
    rng = np.random.default_rng(0)
    xs = rng.normal(3.0, 2.0, size=1000)
    st = OnlineStats()
    st.extend(xs)
    assert st.count == 1000
    assert st.mean == pytest.approx(xs.mean(), rel=1e-12)
    assert st.std == pytest.approx(xs.std(ddof=1), rel=1e-10)
    assert st.min == xs.min() and st.max == xs.max()


def test_online_stats_empty_and_single():
    st = OnlineStats()
    assert math.isnan(st.mean)
    st.add(4.0)
    assert st.mean == 4.0
    assert math.isnan(st.variance)


def test_online_stats_merge_equals_union():
    rng = np.random.default_rng(1)
    xs, ys = rng.random(100), rng.random(57)
    a, b, u = OnlineStats(), OnlineStats(), OnlineStats()
    a.extend(xs)
    b.extend(ys)
    u.extend(np.concatenate([xs, ys]))
    m = a.merge(b)
    assert m.count == u.count
    assert m.mean == pytest.approx(u.mean)
    assert m.variance == pytest.approx(u.variance)
    assert m.min == u.min and m.max == u.max


def test_online_stats_merge_with_empty():
    a, b = OnlineStats(), OnlineStats()
    a.add(1.0)
    m = a.merge(b)
    assert m.count == 1 and m.mean == 1.0
    assert a.merge(OnlineStats()).as_dict()["count"] == 1
    assert OnlineStats().merge(OnlineStats()).count == 0


def test_histogram_binning_and_overflow():
    h = Histogram(0.0, 10.0, bins=10)
    for x in [0.5, 1.5, 1.6, 9.99, -1, 10.0, 25]:
        h.add(x)
    assert h.counts[0] == 1 and h.counts[1] == 2 and h.counts[9] == 1
    assert h.underflow == 1 and h.overflow == 2
    assert h.total == 7


def test_histogram_quantile():
    h = Histogram(0.0, 100.0, bins=100)
    for x in range(100):
        h.add(x + 0.5)
    assert h.quantile(0.5) == pytest.approx(49.5, abs=1.0)
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_histogram_validation():
    with pytest.raises(ValueError):
        Histogram(5, 5)
    with pytest.raises(ValueError):
        Histogram(0, 1, bins=0)


def test_summarize():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert s["count"] == 4 and s["mean"] == 2.5 and s["min"] == 1.0
    assert summarize([]) == {"count": 0}


# -------------------------------------------------------------- serialization


def test_measured_size_scales_with_array():
    small = measured_size(np.zeros(10))
    large = measured_size(np.zeros(10_000))
    assert large - small == pytest.approx((10_000 - 10) * 8, abs=8)


def test_measured_size_handles_plain_types():
    assert measured_size(None) > 0
    assert measured_size("hello") > measured_size("")
    assert measured_size({"k": [1, 2, 3]}) > measured_size({})
    assert measured_size(b"x" * 100) >= 100


def test_clone_state_isolates_arrays():
    state = {"x": np.arange(5.0), "meta": [1, {"deep": np.ones(3)}]}
    snap = clone_state(state)
    state["x"][0] = 999
    state["meta"][1]["deep"][0] = 999
    assert snap["x"][0] == 0.0
    assert snap["meta"][1]["deep"][0] == 1.0


def test_clone_state_tuples_and_scalars():
    snap = clone_state((1, "a", np.float64(2.5)))
    assert snap == (1, "a", 2.5)


# --------------------------------------------------------------------- timers


def test_wall_timer():
    with WallTimer() as t:
        assert t.lap() >= 0.0
    assert t.elapsed >= 0.0
    with pytest.raises(RuntimeError):
        WallTimer().lap()
