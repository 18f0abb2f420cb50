"""Tests for Backup objects, stores, placement policy and recovery rule."""

import numpy as np
import pytest

from repro.checkpoint import Backup, BackupPolicy, BackupStore, choose_latest


# --------------------------------------------------------------------- backup


def test_backup_snapshot_is_isolated_from_live_state():
    # Zero-copy path: the constructor takes ownership of the snapshot and
    # freezes it — a caller mutating it afterwards fails loudly instead of
    # silently corrupting the checkpoint.
    live = {"x": np.arange(4.0), "iteration": 3}
    b = Backup(task_id=1, iteration=3, state=live, app_id="app")
    with pytest.raises(ValueError):
        live["x"][0] = 777.0
    assert b.state["x"][0] == 0.0
    restored = b.restore()
    restored["x"][1] = -1.0  # restore() hands out writable copies
    assert b.state["x"][1] == 1.0


def test_backup_size_accounting_tracks_payload():
    small = Backup(0, 0, {"x": np.zeros(10)})
    big = Backup(0, 0, {"x": np.zeros(10_000)})
    assert big.nbytes > small.nbytes


def test_backup_negative_iteration_rejected():
    with pytest.raises(ValueError):
        Backup(0, -1, {})


# ---------------------------------------------------------------------- store


def test_store_keeps_latest_version_per_task():
    store = BackupStore()
    assert store.save(Backup(2, 0, {"v": 0}, app_id="a"))
    assert store.save(Backup(2, 2, {"v": 2}, app_id="a"))
    assert store.iteration_of("a", 2) == 2
    assert store.load("a", 2).state == {"v": 2}
    assert len(store) == 1
    assert store.saves_accepted == 2


def test_store_rejects_stale_checkpoint():
    store = BackupStore()
    store.save(Backup(1, 5, {}, app_id="a"))
    assert not store.save(Backup(1, 3, {}, app_id="a"))  # reordered message
    assert not store.save(Backup(1, 5, {}, app_id="a"))  # duplicate
    assert store.iteration_of("a", 1) == 5
    assert store.saves_rejected_stale == 2


def test_store_separates_apps_and_tasks():
    store = BackupStore()
    store.save(Backup(1, 1, {}, app_id="a"))
    store.save(Backup(1, 9, {}, app_id="b"))
    store.save(Backup(2, 4, {}, app_id="a"))
    assert store.iteration_of("a", 1) == 1
    assert store.iteration_of("b", 1) == 9
    assert store.iteration_of("a", 2) == 4
    store.drop_app("a")
    assert store.iteration_of("a", 1) is None
    assert store.iteration_of("a", 2) is None
    assert store.iteration_of("b", 1) == 9


def test_store_miss_returns_none():
    store = BackupStore()
    assert store.iteration_of("a", 0) is None
    assert store.load("a", 0) is None
    store.drop("a", 0)  # no-op


def test_store_total_bytes():
    store = BackupStore()
    store.save(Backup(0, 0, {"x": np.zeros(100)}, app_id="a"))
    store.save(Backup(1, 0, {"x": np.zeros(100)}, app_id="a"))
    assert store.total_bytes >= 1600


# --------------------------------------------------------------------- policy


def test_policy_left_right_neighbours_for_count_two():
    """count=2 reproduces the paper's Figure 5 example exactly."""
    policy = BackupPolicy(num_tasks=4, count=2)
    assert set(policy.backup_peers(1)) == {0, 2}
    assert set(policy.backup_peers(2)) == {1, 3}
    # wrap-around at the ends
    assert set(policy.backup_peers(0)) == {1, 3}
    assert set(policy.backup_peers(3)) == {2, 0}


def test_policy_round_robin_alternates_targets():
    """Figure 5: T2's even-iteration saves go to one side, odd to the other."""
    policy = BackupPolicy(num_tasks=4, count=2)
    targets = [policy.target_for_save(1, i) for i in range(4)]
    assert targets == [2, 0, 2, 0]


def test_policy_count_clamped_to_population():
    policy = BackupPolicy(num_tasks=5, count=20)
    peers = policy.backup_peers(2)
    assert len(peers) == 4
    assert sorted(peers) == [0, 1, 3, 4]


def test_policy_peers_never_include_self_and_are_unique():
    policy = BackupPolicy(num_tasks=9, count=6)
    for k in range(9):
        peers = policy.backup_peers(k)
        assert k not in peers
        assert len(set(peers)) == len(peers) == 6


def test_policy_single_task_has_no_peers():
    policy = BackupPolicy(num_tasks=1, count=20)
    assert policy.backup_peers(0) == []
    assert policy.target_for_save(0, 0) is None


def test_policy_checkpoint_frequency():
    policy = BackupPolicy(num_tasks=2, count=1, frequency=5)
    due = [i for i in range(21) if policy.checkpoint_due(i)]
    assert due == [5, 10, 15, 20]
    every = BackupPolicy(num_tasks=2, count=1, frequency=1)
    assert every.checkpoint_due(1) and not every.checkpoint_due(0)


def test_policy_validation():
    with pytest.raises(ValueError):
        BackupPolicy(num_tasks=0)
    with pytest.raises(ValueError):
        BackupPolicy(num_tasks=2, count=-1)
    with pytest.raises(ValueError):
        BackupPolicy(num_tasks=2, frequency=0)
    with pytest.raises(ValueError):
        BackupPolicy(num_tasks=3).backup_peers(3)


# ------------------------------------------------------------------- recovery


def test_choose_latest_picks_highest_iteration():
    # the paper's Figure 6: D2 holds iter 6, D4 holds iter 7 -> restart at 7
    assert choose_latest({2: 6, 4: 7}) == 4


def test_choose_latest_ignores_unreachable_peers():
    assert choose_latest({0: None, 1: 12, 2: None}) == 1


def test_choose_latest_tie_breaks_deterministically():
    assert choose_latest({5: 8, 2: 8}) == 2


def test_choose_latest_nothing_recoverable():
    assert choose_latest({0: None, 1: None}) is None
    assert choose_latest({}) is None


# ------------------------------------------------------------- RAM budget


def test_store_capacity_budget_rejects_oversize():
    store = BackupStore(max_bytes=2000)
    small = Backup(0, 1, {"x": np.zeros(50)}, app_id="a")   # ~700 B
    big = Backup(1, 1, {"x": np.zeros(100_000)}, app_id="a")
    assert store.save(small)
    assert not store.save(big)  # would blow the budget
    assert store.saves_rejected_capacity == 1
    assert store.iteration_of("a", 1) is None


def test_store_budget_replacement_does_not_double_count():
    store = BackupStore(max_bytes=1200)
    first = Backup(0, 1, {"x": np.zeros(100)}, app_id="a")  # ~1100 B
    assert store.save(first)
    # replacing the same task's Backup with a same-size newer one fits:
    # the old copy is released in the same operation
    newer = Backup(0, 5, {"x": np.zeros(100)}, app_id="a")
    assert store.save(newer)
    assert store.iteration_of("a", 0) == 5
    # but a SECOND task's Backup does not fit alongside it
    other = Backup(1, 1, {"x": np.zeros(100)}, app_id="a")
    assert not store.save(other)


def test_store_budget_validation():
    with pytest.raises(ValueError):
        BackupStore(max_bytes=0)


def test_daemon_backup_budget_scales_with_ram():
    from repro.p2p import build_cluster
    from repro.p2p.daemon import BACKUP_RAM_FRACTION

    cluster = build_cluster(n_daemons=8, n_superpeers=1, seed=0)
    daemons = cluster.daemons.values()
    assert len({d.host.ram_mb for d in daemons}) > 1
    for d in daemons:
        assert d.backup_store.max_bytes == (
            d.host.ram_mb * 1024 * 1024 * BACKUP_RAM_FRACTION)
