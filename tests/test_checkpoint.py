"""Tests for Backup objects, stores, placement policy and recovery rule."""

import numpy as np
import pytest

from repro.checkpoint import (Backup, BackupStore, FixedPolicy, choose_latest,
                              guardians)


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


def test_backup_epoch_costs_what_created_at_cost():
    """``epoch`` took the 8 wire bytes of the float timestamp it replaced:
    these sizes are the ones the timestamped Backup measured."""
    state = {"x": np.arange(40.0), "iteration": 3}
    assert Backup(0, 3, {"x": np.zeros(10)}, app_id="app", epoch=4).nbytes == 449
    assert Backup(2, 12, state, app_id="a").nbytes == 706
    assert Backup(2, 12, state, app_id="a", epoch=9).nbytes == 706


def test_backup_negative_iteration_rejected():
    with pytest.raises(ValueError):
        Backup(0, -1, {})


# ---------------------------------------------------------------------- store


def test_store_keeps_latest_version_per_task():
    store = BackupStore()
    assert store.save(Backup(2, 0, {"v": 0}, app_id="a"))
    assert store.save(Backup(2, 2, {"v": 2}, app_id="a"))
    assert store.version_of("a", 2) == (0, 2)
    assert store.load("a", 2).state == {"v": 2}
    assert len(store) == 1
    assert store.saves_accepted == 2


def test_store_rejects_stale_checkpoint():
    store = BackupStore()
    store.save(Backup(1, 5, {}, app_id="a"))
    assert not store.save(Backup(1, 3, {}, app_id="a"))  # reordered message
    assert not store.save(Backup(1, 5, {}, app_id="a"))  # duplicate
    assert store.version_of("a", 1) == (0, 5)
    assert store.saves_rejected_stale == 2
    assert store.saves_rejected_zombie == 0


def test_store_orders_by_epoch_then_iteration():
    """A replaced incarnation still computing (a partition zombie) runs
    ahead on frozen inputs: its saves must not outrank its replacement's,
    and they are counted apart from same-epoch reorders."""
    store = BackupStore()
    assert store.save(Backup(1, 40, {"v": "live"}, app_id="a", epoch=2))
    assert not store.save(Backup(1, 120, {"v": "zombie"}, app_id="a", epoch=1))
    assert not store.save(Backup(1, 35, {}, app_id="a", epoch=2))  # reordered
    assert store.version_of("a", 1) == (2, 40)
    assert store.load("a", 1).state == {"v": "live"}
    assert store.saves_rejected_zombie == 1
    assert store.saves_rejected_stale == 1
    # a newer incarnation wins at any iteration, a lower one included
    assert store.save(Backup(1, 5, {}, app_id="a", epoch=3))
    assert store.version_of("a", 1) == (3, 5)


def test_store_separates_apps_and_tasks():
    store = BackupStore()
    store.save(Backup(1, 1, {}, app_id="a"))
    store.save(Backup(1, 9, {}, app_id="b"))
    store.save(Backup(2, 4, {}, app_id="a"))
    assert store.version_of("a", 1) == (0, 1)
    assert store.version_of("b", 1) == (0, 9)
    assert store.version_of("a", 2) == (0, 4)
    store.drop_app("a")
    assert store.version_of("a", 1) is None
    assert store.version_of("a", 2) is None
    assert store.version_of("b", 1) == (0, 9)


def test_store_miss_returns_none():
    store = BackupStore()
    assert store.version_of("a", 0) is None
    assert store.load("a", 0) is None


def test_store_total_bytes():
    store = BackupStore()
    store.save(Backup(0, 0, {"x": np.zeros(100)}, app_id="a"))
    store.save(Backup(1, 0, {"x": np.zeros(100)}, app_id="a"))
    assert store.total_bytes >= 1600


# --------------------------------------------------------------------- policy


def test_policy_left_right_neighbours_for_count_two():
    """count=2 reproduces the paper's Figure 5 example exactly."""
    assert set(guardians(1, 4, 2)) == {0, 2}
    assert set(guardians(2, 4, 2)) == {1, 3}
    # wrap-around at the ends
    assert set(guardians(0, 4, 2)) == {1, 3}
    assert set(guardians(3, 4, 2)) == {2, 0}


def test_policy_round_robin_alternates_targets():
    """Figure 5: T2's even-iteration saves go to one side, odd to the other."""
    schedule = FixedPolicy(count=2, frequency=1).bind(num_tasks=4)
    targets = [schedule.begin_save(1, i) for i in range(1, 5)]
    assert targets == [(2,), (0,), (2,), (0,)]


def test_policy_count_clamped_to_population():
    peers = guardians(2, 5, 20)
    assert len(peers) == 4
    assert sorted(peers) == [0, 1, 3, 4]


def test_policy_peers_never_include_self_and_are_unique():
    for k in range(9):
        peers = guardians(k, 9, 6)
        assert k not in peers
        assert len(set(peers)) == len(peers) == 6


def test_policy_single_task_has_no_peers():
    assert guardians(0, 1, 20) == ()
    assert FixedPolicy(count=20).bind(num_tasks=1).begin_save(0, 5) == ()


def test_policy_checkpoint_frequency():
    schedule = FixedPolicy(count=1, frequency=5).bind(num_tasks=2)
    due = []
    for i in range(21):
        if schedule.checkpoint_due(i):
            due.append(i)
            schedule.begin_save(0, i)
    assert due == [5, 10, 15, 20]
    every = FixedPolicy(count=1, frequency=1).bind(num_tasks=2)
    assert every.checkpoint_due(1) and not every.checkpoint_due(0)


def test_policy_validation():
    with pytest.raises(ValueError):
        guardians(0, 0, 20)
    with pytest.raises(ValueError):
        guardians(0, 2, -1)
    with pytest.raises(ValueError):
        FixedPolicy(frequency=0)
    with pytest.raises(ValueError):
        guardians(3, 3, 20)


# ------------------------------------------------------------------- recovery


def test_choose_latest_picks_highest_iteration():
    # the paper's Figure 6: D2 holds iter 6, D4 holds iter 7 -> restart at 7
    assert choose_latest({2: (0, 6), 4: (0, 7)}) == 4


def test_choose_latest_prefers_the_newest_epoch():
    # a superseded incarnation's Backup loses at any iteration
    assert choose_latest({0: (1, 120), 2: (2, 40), 3: None}) == 2


def test_choose_latest_ignores_unreachable_peers():
    assert choose_latest({0: None, 1: (0, 12), 2: None}) == 1


def test_choose_latest_tie_breaks_deterministically():
    assert choose_latest({5: (1, 8), 2: (1, 8)}) == 2


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
    assert store.version_of("a", 1) is None


def test_store_budget_replacement_does_not_double_count():
    store = BackupStore(max_bytes=1200)
    first = Backup(0, 1, {"x": np.zeros(100)}, app_id="a")  # ~1100 B
    assert store.save(first)
    # replacing the same task's Backup with a same-size newer one fits:
    # the old copy is released in the same operation
    newer = Backup(0, 5, {"x": np.zeros(100)}, app_id="a")
    assert store.save(newer)
    assert store.version_of("a", 0) == (0, 5)
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
