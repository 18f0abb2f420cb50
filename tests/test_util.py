"""Tests for repro.util: RNG trees, serialization sizing, timers."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import (
    RngTree,
    WallTimer,
    clone_state,
    derive_seed,
    measured_size,
)

from tests.oracles.picks_reference import picks_reference, splitmix64


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


# ---------------------------------------------------------------- rng: picks


def test_picks_are_distinct_indices_in_range_for_every_k():
    node = RngTree(11).child("round", 0)
    for m in range(0, 12):
        for k in range(0, m + 1):
            got = node.picks(m, k)
            assert len(got) == k == len(set(got))
            assert all(0 <= i < m for i in got)
        assert sorted(node.picks(m, m)) == list(range(m))
    for m, k in [(3, 4), (0, 1), (5, -1)]:
        with pytest.raises(ValueError):
            node.picks(m, k)


def test_picks_are_stateless_and_streams_differ():
    node = RngTree(7).child("gossip", "round", 3)
    assert node.picks(32, 4) == node.picks(32, 4) == node.picks(32, 4, 0)
    draws = [tuple(node.picks(32, 4, stream)) for stream in range(3)]
    assert len(set(draws)) == 3
    # a prefix, like the full shuffle it abbreviates
    assert node.picks(32, 2) == node.picks(32, 4)[:2]
    assert node.picks(32, 4) != RngTree(8).child("gossip", "round", 3).picks(32, 4)


def test_picks_are_the_same_in_another_process():
    """A pure function of (root seed, label path, m, k, stream): pinned
    values, recomputed under another hash seed."""
    pinned = {0: [21, 22, 24, 1], 1: [15, 2, 18, 17], 2: [24, 9, 4, 21]}
    node = RngTree(7).child("gossip", "round", 3)
    assert {s: node.picks(32, 4, s) for s in pinned} == pinned
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro.util.rng import RngTree\n"
         "node = RngTree(7).child('gossip', 'round', 3)\n"
         "print({s: node.picks(32, 4, s) for s in range(3)})"],
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "99",
             "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == repr(pinned)


def test_picks_are_uniform_over_the_indices():
    """20,000 draws of ``picks(32, 2)`` at a fixed seed: each index is due
    1,250 times (sigma ~ 34); a modulo or swap bug lands far outside 15 %."""
    root = RngTree(2006)
    first, second = Counter(), Counter()
    for n in range(20_000):
        a, b = root.child("round", n).picks(32, 2)
        first[a] += 1
        second[b] += 1
    both = first + second
    for i in range(32):
        assert abs(both[i] - 1250) <= 0.15 * 1250
        # and each position on its own (625 due, sigma ~ 25)
        assert abs(first[i] - 625) <= 0.2 * 625
        assert abs(second[i] - 625) <= 0.2 * 625


def test_reference_splitmix64_matches_the_published_vectors():
    words = splitmix64(1234567)
    assert [next(words) for _ in range(3)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), m=st.integers(0, 40),
       k=st.integers(0, 40), stream=st.integers(0, 5))
def test_picks_equal_a_full_fisher_yates_prefix(seed, m, k, stream):
    k = min(k, m)
    assert RngTree(seed).picks(m, k, stream) == picks_reference(seed, m, k, stream)


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
        pass
    assert t.elapsed >= 0.0
