"""Tests for the Daemon: bootstrap, heartbeats, re-registration, task
assignment, data exchange and backup service (paper §5.1, §5.3, §5.4)."""

import pytest

from repro.checkpoint import Backup, FailureFeed, FixedPolicy
from repro.des import Simulator
from repro.errors import TaskError
from repro.net import Address, Network, UniformLinkModel
from repro.net.host import Host
from repro.obs import RunTelemetry, Tracer
from repro.p2p import Daemon, P2PConfig, SuperPeer, build_cluster
from repro.p2p.daemon import BACKUP_RAM_FRACTION, WHEEL_REAFFIRM_EVERY
from repro.p2p.messages import ApplicationRegister
from repro.rmi import RmiRuntime
from repro.util.rng import RngTree

from tests.helpers import GeometricTask, select


CFG = P2PConfig(
    heartbeat_period=0.5,
    heartbeat_timeout=2.0,
    monitor_period=0.5,
    bootstrap_retry_delay=0.5,
    call_timeout=2.0,
    min_iteration_time=0.01,
)


def make_daemon(network, host, daemon_id, addresses, config, rng, wheel):
    """A Daemon with its own run counters, the paper's checkpoint policy
    and a failure feed, as a cluster would boot it."""
    return Daemon(network, host, daemon_id, addresses, config, rng, wheel,
                  RunTelemetry(), FixedPolicy(), FailureFeed())


def make_world(n_superpeers=2, n_daemons=1, cfg=CFG):
    tracer = Tracer()
    sim = Simulator(tracer=tracer)
    net = Network(sim, link_model=UniformLinkModel(latency=1e-4))
    sps = []
    for i in range(n_superpeers):
        host = net.new_host(f"sp-host-{i}")
        sps.append(SuperPeer(net, host, f"SP{i}", cfg))
    stubs = [sp.stub for sp in sps]
    for sp in sps:
        sp.link(stubs)
    addrs = [sp.stub.address for sp in sps]
    wheel = sim.timer_wheel(cfg.heartbeat_period)
    daemons = []
    for i in range(n_daemons):
        host = net.new_host(f"d-host-{i}")
        daemons.append(
            make_daemon(net, host, f"d{i}", addrs, cfg, RngTree(100 + i), wheel)
        )
    return sim, net, sps, daemons, tracer


def total_registered(sps):
    return sum(len(sp.register) for sp in sps)


def test_daemon_bootstraps_to_some_superpeer():
    sim, net, sps, (d,), tracer = make_world()
    sim.run(until=2.0)
    assert d.registered
    assert total_registered(sps) == 1
    assert tracer.count("p2p", "daemon_registered") == 1


def test_daemon_requires_superpeer_addresses():
    sim, net, sps, _, tracer = make_world(n_daemons=0)
    host = net.new_host("lonely")
    with pytest.raises(ValueError):
        make_daemon(net, host, "d", [], CFG, RngTree(0),
               sim.timer_wheel(CFG.heartbeat_period))


def test_daemon_bootstrap_retries_until_superpeer_appears():
    sim = Simulator()
    net = Network(sim, link_model=UniformLinkModel(latency=1e-4))
    sp_addr = Address("sp-host-0", CFG.superpeer_port)
    host = net.new_host("d-host")
    d = make_daemon(net, host, "d0", [sp_addr], CFG, RngTree(1),
               sim.timer_wheel(CFG.heartbeat_period))
    sim.run(until=5.0)
    assert not d.registered  # nothing to register with yet
    sp_host = net.new_host("sp-host-0")
    sp = SuperPeer(net, sp_host, "SP0", CFG)
    sim.run(until=15.0)
    assert d.registered
    assert len(sp.register) == 1


def test_daemon_relocates_when_superpeer_dies():
    """§5.3: on Super-Peer failure, Daemons locate another Super-Peer."""
    sim, net, sps, (d,), tracer = make_world(n_superpeers=2)
    sim.run(until=2.0)
    original = d.sp_stub
    # kill the super-peer the daemon registered with
    victim = next(sp for sp in sps if sp.stub.address == original.address)
    victim.host.fail()
    sim.run(until=15.0)
    assert d.registered
    assert d.sp_stub.address != original.address
    assert tracer.count("p2p", "daemon_superpeer_lost") >= 1


def test_daemon_reregisters_after_eviction():
    """If a Super-Peer forgot us (heartbeat returns False), re-register."""
    sim, net, sps, (d,), tracer = make_world(n_superpeers=1)
    sim.run(until=2.0)
    sp = sps[0]
    # simulate amnesia: drop the record without the daemon knowing
    sp.register.clear()
    sim.run(until=6.0)
    assert len(sp.register) == 1  # re-registered


def test_daemon_reboot_after_host_failure():
    sim, net, sps, (d,), tracer = make_world()
    reboots = []

    def on_rec(host):
        reboots.append(
            make_daemon(net, host, "d0#2", [sp.stub.address for sp in sps], CFG,
                   RngTree(7), sim.timer_wheel(CFG.heartbeat_period))
        )

    d.host.on_recover(on_rec)
    sim.run(until=2.0)
    d.host.fail(cause="churn")
    # its last beat rode the t=2.0 wheel slot: silent past the timeout
    sim.run(until=4.6)
    assert total_registered(sps) == 0  # evicted after silence
    d.host.recover()
    sim.run(until=10.0)
    assert len(reboots) == 1
    assert reboots[0].registered
    assert total_registered(sps) == 1


def test_a_host_failing_mid_registration_registers_only_its_reboot():
    """The host dies after its Super-Peer took the registration but before
    the reply came back: the dead incarnation's sweep ends with it (the
    reply is lost and the call's deadline changes nothing), and the
    rebooted incarnation registers exactly once."""
    sim, net, sps, (d,), tracer = make_world(n_superpeers=1)
    sp = sps[0]
    reboots = []

    def on_rec(host):
        reboots.append(
            make_daemon(net, host, "d0#2", [sp.stub.address], CFG, RngTree(7),
                   sim.timer_wheel(CFG.heartbeat_period))
        )

    d.host.on_recover(on_rec)
    sim.run(until=1.5e-4)  # request served, reply still on the wire
    assert "d0" in sp.register and not d.registered
    d.host.fail(cause="churn")
    sim.run(until=1.0)
    d.host.recover()
    # past the dead incarnation's call deadline (t=2) and its eviction
    sim.run(until=5.0)
    assert not d.registered and d.sp_stub is None
    assert select(tracer, "p2p", "daemon_registered", entity="d0") == []
    assert len(select(tracer, "p2p", "daemon_registered", entity="d0#2")) == 1
    assert reboots[0].registered
    assert list(sp.register) == ["d0#2"]


def test_an_idle_daemon_spawns_no_process(monkeypatch):
    """Bootstrap and reaffirm are callbacks on the Daemon's own RMI call
    events: over its registration and more than WHEEL_REAFFIRM_EVERY beats
    an idle Daemon's host runs no process."""
    spawned = []
    spawn = Host.spawn

    def counting_spawn(host, generator, label=""):
        spawned.append(host.name)
        return spawn(host, generator, label)

    monkeypatch.setattr(Host, "spawn", counting_spawn)
    sim, net, sps, (d,), tracer = make_world()
    sim.run(until=(WHEEL_REAFFIRM_EVERY + 5) * CFG.heartbeat_period)
    assert d.registered
    assert tracer.count("p2p", "heartbeat") >= 1  # a call-based reaffirm ran
    assert d.host.name not in spawned
    assert spawned  # the Super-Peers' monitors were counted


def test_a_daemon_holds_no_backup_store_until_it_guards_a_backup():
    sim, net, sps, (d,), tracer = make_world()
    client = RmiRuntime(net, net.new_host("saver"), 4995)
    backup = Backup(task_id=3, iteration=10, state={"x": 0.5}, app_id="app")

    def script(env):
        # every reader treats the missing store as empty
        missing = yield client.call(d.stub, "backup_iteration", "app", 3)
        loaded = yield client.call(d.stub, "load_backup", "app", 3)
        yield client.call(d.stub, "halt", "app")
        before = d._backup_store
        stored = yield client.call(d.stub, "store_backup", backup)
        return missing, loaded, before, stored

    p = sim.process(script(sim))
    sim.run(until=p)
    missing, loaded, before, stored = p.value
    assert missing is None and loaded is None and before is None
    assert stored and len(d._backup_store) == 1
    assert d._backup_store.max_bytes == (
        d.host.ram_mb * 1024 * 1024 * BACKUP_RAM_FRACTION)


@pytest.mark.parametrize("gossip", [False, True])
def test_every_daemon_of_a_cluster_holds_the_same_roster(gossip):
    cluster = build_cluster(n_daemons=6, n_superpeers=3, seed=0,
                            config=P2PConfig(gossip_enabled=gossip))
    host = cluster.testbed.daemon_hosts[0]
    host.fail(cause="test")
    host.recover()  # a rebooted incarnation shares it too
    assert cluster.incarnations[host.name] == 2
    rosters = [d.superpeer_addresses for d in cluster.daemons.values()]
    assert all(roster is rosters[0] for roster in rosters)
    expected = cluster.superpeer_addresses
    assert list(rosters[0]) == (expected[:2] if gossip else expected)


class _FakeSpawner:
    """Captures what a Daemon sends its Spawner."""

    def __init__(self, net, cfg):
        host = net.new_host("spawner-host")
        self.runtime = RmiRuntime(net, host, cfg.spawner_port, name="fake-spawner")
        from repro.rmi import RemoteObject, remote

        outer = self

        class Obj(RemoteObject):
            @remote
            def heartbeat_task(self, app_id, task_id, epoch, daemon_id,
                               daemon_stub, stable=None,
                               register_version=None):
                outer.heartbeats.append((app_id, task_id, epoch, daemon_id,
                                         stable))

            @remote
            def set_state(self, app_id, task_id, epoch, stable):
                outer.states.append((app_id, task_id, epoch, stable))

        self.heartbeats = []
        self.states = []
        self.stub = self.runtime.serve(Obj(), "spawner")


def assign(sim, net, daemon, spawner_stub, num_tasks=1, task_id=0, epoch=1,
           restart=False, threshold=1e-3, window=2, register=None):
    reg = register or ApplicationRegister.empty("app", num_tasks)
    reg.slot(task_id).daemon_id = daemon.daemon_id
    reg.slot(task_id).daemon_stub = daemon.stub
    reg.slot(task_id).epoch = epoch
    reg.version = 1
    client = RmiRuntime(net, net.new_host(f"caller-{id(daemon)%10_000}"), 4999,
                        name="caller")

    def script(env):
        ok = yield client.call(
            daemon.stub, "assign_task", "app", GeometricTask, task_id,
            num_tasks, {"rate": 0.5, "flops": 1e6}, reg, spawner_stub,
            epoch, restart, threshold, window,
        )
        return ok

    p = sim.process(script(sim))
    sim.run(until=p)
    return p.value, reg


def test_assign_task_runs_to_local_convergence():
    sim, net, sps, (d,), tracer = make_world()
    fake = _FakeSpawner(net, CFG)
    sim.run(until=1.0)
    ok, _ = assign(sim, net, d, fake.stub)
    assert ok
    sim.run(until=sim.now + 5.0)
    # the geometric task decays below 1e-3 after ~10 iterations, then the
    # stability window of 2 more, then reports stable=True
    assert ("app", 0, 1, True) in fake.states
    assert any(h[3] == "d0" for h in fake.heartbeats)
    assert d.runner is not None  # async tasks keep iterating until halted


def test_assign_busy_daemon_raises_taskerror():
    sim, net, sps, (d,), tracer = make_world()
    fake = _FakeSpawner(net, CFG)
    sim.run(until=1.0)
    assign(sim, net, d, fake.stub)
    client = RmiRuntime(net, net.new_host("second-caller"), 4998)
    reg = ApplicationRegister.empty("other", 1)

    def script(env):
        try:
            yield client.call(
                d.stub, "assign_task", "other", GeometricTask, 0, 1, {},
                reg, fake.stub, 1, False, 1e-3, 2,
            )
        except TaskError:
            return "busy"

    p = sim.process(script(sim))
    sim.run(until=p)
    assert p.value == "busy"


def test_halt_stops_task_and_daemon_rejoins_pool():
    sim, net, sps, (d,), tracer = make_world()
    fake = _FakeSpawner(net, CFG)
    sim.run(until=1.0)
    assign(sim, net, d, fake.stub)
    sim.run(until=sim.now + 2.0)
    client = RmiRuntime(net, net.new_host("halter"), 4997)

    def script(env):
        yield client.call(d.stub, "halt", "app")

    p = sim.process(script(sim))
    sim.run(until=p)
    sim.run(until=sim.now + 5.0)
    assert d.runner is None
    assert d.registered  # back in the idle pool
    assert total_registered(sps) == 1


def test_receive_data_reaches_runner_inbox_last_write_wins():
    sim, net, sps, (d,), tracer = make_world()
    fake = _FakeSpawner(net, CFG)
    sim.run(until=1.0)
    ok, _ = assign(sim, net, d, fake.stub, num_tasks=2, task_id=0)
    client = RmiRuntime(net, net.new_host("sender"), 4996)
    client.oneway(d.stub, "receive_data", "app", 0, 1, 7, [1.0])
    client.oneway(d.stub, "receive_data", "app", 0, 1, 8, [2.0])
    sim.run(until=sim.now + 1.0)
    assert d.runner.task.seen.get(1) == [2.0] or d.runner.inbox.get(1) == [2.0]


def test_receive_data_for_wrong_task_dropped():
    sim, net, sps, (d,), tracer = make_world()
    fake = _FakeSpawner(net, CFG)
    sim.run(until=1.0)
    assign(sim, net, d, fake.stub, num_tasks=2, task_id=0)
    client = RmiRuntime(net, net.new_host("sender"), 4996)
    client.oneway(d.stub, "receive_data", "app", 1, 0, 7, [9.0])   # wrong dst
    client.oneway(d.stub, "receive_data", "ghost", 0, 1, 7, [9.0])  # wrong app
    sim.run(until=sim.now + 1.0)
    assert 0 not in d.runner.task.seen
    assert d.runner.task.seen.get(1) != [9.0]


def test_receive_data_drops_a_stale_epoch_and_accepts_a_newer_one():
    """The data fence: a sender older than the register's slot is a
    replaced incarnation (a partition zombie); a newer one is a replacement
    whose register broadcast has not reached us yet."""
    sim, net, sps, (d,), tracer = make_world()
    fake = _FakeSpawner(net, CFG)
    sim.run(until=1.0)
    reg = ApplicationRegister.empty("app", 2)
    reg.slot(1).epoch = 3
    assign(sim, net, d, fake.stub, num_tasks=2, task_id=0, register=reg)
    client = RmiRuntime(net, net.new_host("sender"), 4996)
    client.oneway(d.stub, "receive_data", "app", 0, 1, 2, [9.0])  # zombie
    sim.run(until=sim.now + 0.001)
    assert d.runner.inbox.get(1) is None and d.runner.task.seen.get(1) != [9.0]
    assert tracer.count("p2p", "zombie_data_dropped") == 1
    client.oneway(d.stub, "receive_data", "app", 0, 1, 4, [2.0])  # newer
    sim.run(until=sim.now + 1.0)
    assert d.runner.task.seen.get(1) == [2.0] or d.runner.inbox.get(1) == [2.0]
    assert tracer.count("p2p", "zombie_data_dropped") == 1


def test_fence_stops_only_an_older_epoch_of_the_fenced_task():
    sim, net, sps, (d,), tracer = make_world()
    fake = _FakeSpawner(net, CFG)
    sim.run(until=1.0)
    assign(sim, net, d, fake.stub, num_tasks=2, task_id=0, epoch=2)
    runner = d.runner
    client = RmiRuntime(net, net.new_host("fencer"), 4992)
    # a late fence for this very assignment, one for another task and one
    # for another app must all leave the runner alone
    client.oneway(d.stub, "fence", "app", 0, 2)
    client.oneway(d.stub, "fence", "app", 1, 5)
    client.oneway(d.stub, "fence", "other", 0, 5)
    sim.run(until=sim.now + 0.5)
    assert d.runner is runner and not runner.halted
    client.oneway(d.stub, "fence", "app", 0, 3)
    sim.run(until=sim.now + 0.5)
    assert runner.halted and d.runner is None
    assert tracer.count("p2p", "fenced") == 1
    assert "app" not in d.final_fragments  # no frontier, no fragment kept


def test_backup_service_roundtrip():
    sim, net, sps, (d,), tracer = make_world()
    client = RmiRuntime(net, net.new_host("saver"), 4995)
    backup = Backup(task_id=3, iteration=10, state={"x": 0.5}, app_id="app")

    def script(env):
        stored = yield client.call(d.stub, "store_backup", backup)
        it = yield client.call(d.stub, "backup_iteration", "app", 3)
        missing = yield client.call(d.stub, "backup_iteration", "app", 4)
        loaded = yield client.call(d.stub, "load_backup", "app", 3)
        return stored, it, missing, loaded

    p = sim.process(script(sim))
    sim.run(until=p)
    stored, it, missing, loaded = p.value
    assert stored and it == 10 and missing is None
    assert loaded.state == {"x": 0.5}


def test_halt_drops_app_backups():
    sim, net, sps, (d,), tracer = make_world()
    client = RmiRuntime(net, net.new_host("saver"), 4995)

    def script(env):
        yield client.call(
            d.stub, "store_backup", Backup(1, 5, {"x": 1}, app_id="app")
        )
        yield client.call(d.stub, "halt", "app")
        it = yield client.call(d.stub, "backup_iteration", "app", 1)
        return it

    p = sim.process(script(sim))
    sim.run(until=p)
    assert p.value is None


def test_update_register_adopts_newer_version_only():
    sim, net, sps, (d,), tracer = make_world()
    fake = _FakeSpawner(net, CFG)
    sim.run(until=1.0)
    ok, reg = assign(sim, net, d, fake.stub, num_tasks=2, task_id=0)
    newer = reg.snapshot()
    newer.version = 5
    newer.slot(1).daemon_id = "other"
    older = reg.snapshot()
    older.version = 0
    client = RmiRuntime(net, net.new_host("updater"), 4994)

    def script(env):
        ok1 = yield client.call(d.stub, "update_register", newer)
        ok2 = yield client.call(d.stub, "update_register", older)
        return ok1, ok2

    p = sim.process(script(sim))
    sim.run(until=p)
    assert p.value == (True, True)
    assert d.runner.register.version == 5
    assert d.runner.register.slot(1).daemon_id == "other"


def test_fetch_solution_exposes_fragment():
    sim, net, sps, (d,), tracer = make_world()
    fake = _FakeSpawner(net, CFG)
    sim.run(until=1.0)
    assign(sim, net, d, fake.stub)
    sim.run(until=sim.now + 1.0)
    client = RmiRuntime(net, net.new_host("collector"), 4993)

    def script(env):
        frag = yield client.call(d.stub, "fetch_solution", "app")
        none = yield client.call(d.stub, "fetch_solution", "nope")
        return frag, none

    p = sim.process(script(sim))
    sim.run(until=p)
    frag, none = p.value
    assert frag[0] == 0 and 0 < frag[1] < 1.0
    assert none is None
