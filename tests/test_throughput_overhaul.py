"""Kernel & message-plane throughput overhaul: correctness guarantees.

Covers the pooled :class:`~repro.des.kernel.ScheduledCall` lane behind
``Simulator.call_later``, a churned Daemon leaving the heartbeat wheel,
the one delivery path (a traced run is the untraced run, a delivery's
kernel-event count, deliveries to a dead host), and the profiling
harness' report schema.
"""

import json

import pytest

from repro.des import Simulator
from repro.errors import SimulationError


# ------------------------------------------------------------ ScheduledCall


def test_call_later_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_later(-0.1, lambda: None)


def test_pooled_entries_are_recycled():
    sim = Simulator()
    fired = []
    assert sim.call_later(1.0, fired.append, 1) is None  # no handle escapes
    sim.run()
    assert fired == [1]
    assert len(sim._call_pool) == 1
    recycled = sim._call_pool[0]
    assert recycled.fn is None  # no dangling reference to the last callback
    sim.call_later(1.0, fired.append, 2)
    assert not sim._call_pool  # the free list was reused, not regrown
    sim.run()
    assert fired == [1, 2]
    assert sim._call_pool[0] is recycled


def test_event_count_is_live_during_callbacks():
    """The network adds each dispatch to ``event_count`` mid-run; the
    drained fast loop must keep it exact at every callback, not flush it
    at exit."""
    sim = Simulator()
    seen = []
    for i in range(5):
        sim.call_later(float(i), lambda: seen.append(sim.event_count))
    sim.run()
    # step N's callback observes N processed events before itself
    assert seen == [0, 1, 2, 3, 4]
    assert sim.event_count == 5


# ------------------------------------------------------ TimerWheel × churn


def test_interrupted_daemon_heartbeat_does_not_fire():
    """A Daemon whose host dies mid-run: its periodic tick must
    deregister (return False) instead of heartbeating from beyond the
    grave — and the wheel sweeps it, bounding entry growth under churn."""
    from repro.p2p.cluster import build_cluster
    from repro.p2p.config import P2PConfig

    config = P2PConfig()
    cluster = build_cluster(n_daemons=4, n_superpeers=1, seed=3, config=config)
    sim = cluster.sim
    sim.run(until=5.0)
    wheel = cluster.wheel
    assert len(wheel) == 4
    victim = cluster.testbed.daemon_hosts[0]
    victim_ids = {
        d.daemon_id for d in cluster.daemons.values() if d.host is victim
    }
    victim.fail()
    # two boundaries later the dead daemon's entry must be swept
    sim.run(until=sim.now + 2 * config.heartbeat_period + 0.1)
    assert len(wheel) == 3
    # the corpse's last_seen froze while survivors keep beating
    sp = cluster.superpeers[0]
    frozen = {d: sp.register[d].last_seen for d in victim_ids if d in sp.register}
    sim.run(until=sim.now + 5 * config.heartbeat_period)
    for daemon_id, last_seen in frozen.items():
        if daemon_id in sp.register:
            assert sp.register[daemon_id].last_seen == last_seen
    live = [d for d in sp.register if d not in victim_ids]
    assert live
    assert all(
        sp.register[d].last_seen > 5.0 for d in live
    )


# ------------------------------------------------ one delivery path


def _poisson_run(tracer=None, **kw):
    from repro.exec import RunSpec

    return RunSpec(**kw).run(tracer=tracer)


def _untraced_and_traced(**kw):
    """The same spec untraced and traced: a tracer observes deliveries
    and changes none of them, so the two must be the same run."""
    from repro.obs import Tracer

    fast = _poisson_run(**kw)
    reference = _poisson_run(tracer=Tracer(), **kw)
    assert reference.run_report is not None  # the tracer was live
    return fast, reference


def test_fastpath_bitwise_identical_poisson():
    fast, reference = _untraced_and_traced(
        n=16, peers=3, seed=11, convergence_threshold=1e-6)
    assert fast.converged and reference.converged
    assert fast.simulated_time == reference.simulated_time
    assert fast.total_iterations == reference.total_iterations
    assert fast.residual == reference.residual
    assert fast == reference


def test_fastpath_bitwise_identical_under_churn():
    fast, reference = _untraced_and_traced(
        n=16, peers=3, seed=7, disconnections=2, convergence_threshold=1e-4)
    assert fast.recoveries >= 1
    assert fast == reference
    # one trace emission per protocol event: each count is the telemetry's
    counts = reference.run_report.event_counts
    assert counts[("faults", "daemon_crash")] == fast.disconnections_executed
    assert counts[("p2p", "recovery")] == fast.recoveries
    assert counts[("p2p", "slot_filled")] == fast.peers + fast.replacements
    assert counts[("p2p", "converged")] == 1


@pytest.mark.parametrize(
    "scenario_name", ["superpeer-outage", "dirty-channel", "spawner-down"])
def test_fastpath_bitwise_identical_under_faults(scenario_name):
    """The fault plane under a tracer: host death between send and
    delivery, a corruption window opening mid-run, and a standby
    takeover."""
    from repro.faults import scenario, scenario_overrides

    # spawner-down needs gossip=True, standby=True
    fast, reference = _untraced_and_traced(
        n=16, peers=3, seed=11, convergence_threshold=1e-6,
        faults=scenario(scenario_name), **scenario_overrides(scenario_name))
    assert fast.converged and reference.converged
    assert fast == reference
    assert fast.takeovers == (1 if scenario_name == "spawner-down" else 0)


def test_traced_run_equals_untraced_under_loss_and_corruption(monkeypatch):
    """The loss draw and the corruptor sit on the one delivery path, and a
    tracer only watches it: with both on, the traced run is the same run."""
    from repro.experiments import driver
    from repro.faults import scenario

    networks = []
    build = driver.build_cluster

    def lossy_cluster(**kw):
        cluster = build(loss_rate=0.02, **kw)
        networks.append(cluster.network)
        return cluster

    monkeypatch.setattr(driver, "build_cluster", lossy_cluster)
    fast, reference = _untraced_and_traced(
        n=16, peers=3, seed=11, convergence_threshold=1e-6,
        faults=scenario("dirty-channel"))
    assert fast.messages_corrupted > 0
    assert networks[0].dropped_loss > 0
    assert networks[0].stats() == networks[1].stats()
    assert fast == reference


def _wired_pair():
    from repro.net import Address, Network

    sim = Simulator()
    net = Network(sim)
    net.new_host("a")
    b = net.new_host("b")
    return sim, net, Address("a", 1), b


def test_a_delivered_message_counts_two_kernel_events_a_dropped_one_one():
    """``des.events`` counts a delivery as arrival plus dispatch, though the
    handler runs in the arrival event; a drop is the arrival alone."""
    from repro.net import Address

    sim, net, src, b = _wired_pair()
    seen = []
    b.open_endpoint(9, seen.append)
    for i in range(10):
        net.send(src, Address("b", 9), i)
    sim.run()
    assert seen == list(range(10))
    assert sim.event_count == 20
    for i in range(5):
        net.send(src, Address("b", 8), i)  # nothing bound there
    sim.run()
    assert net.dropped_dead == 5
    assert sim.event_count == 25


def test_a_failed_host_drops_deliveries_to_its_closed_endpoint():
    from repro.net import Address

    sim, net, src, b = _wired_pair()
    seen = []
    ep = b.open_endpoint(9, seen.append)
    net.send(src, ep.address, "in flight when the host dies")
    b.fail()
    sim.run()
    assert ep.closed
    assert seen == []
    assert net.delivered == 0 and net.dropped_dead == 1
    b.recover()
    b.open_endpoint(9, seen.append)
    net.send(src, Address("b", 9), "after the reboot")
    sim.run()
    assert seen == ["after the reboot"]
    assert ep.closed  # the old endpoint stays dead


def test_jitter_stream_bitwise_matches_scalar_draws():
    """The link model's block-buffered jitter factors must reproduce the
    exact scalar ``uniform(low, high)`` sequence, across block boundaries."""
    from repro.des import Simulator
    from repro.net import Host
    from repro.net.link import GIGABIT_ETHERNET, HeterogeneousLinkModel, _JitterStream
    from repro.util.rng import RngTree

    jitter = 0.07
    model = HeterogeneousLinkModel(jitter=jitter, rng=RngTree(123))
    scalar = RngTree(123)
    sim = Simulator()
    a, b = Host(sim, "a"), Host(sim, "b")
    nbytes = 4096
    base = (2 * GIGABIT_ETHERNET.latency) + nbytes / GIGABIT_ETHERNET.bandwidth
    n = _JitterStream._BLOCK * 2 + 17  # cross two refills
    for _ in range(n):
        assert model.delay(a, b, nbytes) == \
            base * (1.0 + scalar.uniform(-jitter, jitter))


def test_every_rmi_send_is_sized_as_the_reference_walk_charges(monkeypatch):
    """The RMI layer sizes its own envelopes from a constant shell plus
    what each argument value adds (the gossip push alone hands it a size
    assembled from parts): every call, oneway and reply reaching the
    network must carry exactly the bytes the reference envelope rule
    charges for it."""
    from repro.exec import RunSpec
    from repro.experiments.config import EXPERIMENT_CONFIG
    from repro.net.network import Network
    from repro.p2p import daemon
    from repro.rmi.invocation import CallMessage, OnewayMessage, ReplyMessage
    from tests.oracles.payload_reference import envelope_size

    sized = set()
    send = Network.send

    def checked_send(self, src, dst, payload, size=None, *args, **kwargs):
        assert isinstance(payload, (CallMessage, OnewayMessage, ReplyMessage))
        assert size == envelope_size(payload)
        sized.add(getattr(payload, "method", "reply"))
        return send(self, src, dst, payload, size, *args, **kwargs)

    monkeypatch.setattr(Network, "send", checked_send)
    monkeypatch.setattr(daemon, "WHEEL_REAFFIRM_EVERY", 3)
    tiered_wheel = EXPERIMENT_CONFIG.with_(
        superpeer_tiers=2, superpeer_fanout=2, heartbeat_period=0.02)
    for spec in (
        RunSpec(n=16, peers=3, seed=7, disconnections=2),
        RunSpec(n=12, peers=3, seed=9, n_superpeers=2, config=tiered_wheel),
        RunSpec(n=12, peers=3, seed=3, gossip=True, standby=True),
    ):
        assert spec.run().converged
    assert sized >= {"receive_data", "store_backup", "heartbeat_task",
                     "heartbeat", "heartbeat_oneway", "tier_summary", "push",
                     "ping", "reply"}


def test_only_the_rmi_layer_decides_what_a_message_costs():
    """Protocol code hands stubs and arguments to the runtime; it neither
    builds envelopes nor measures them.  The one sender that still passes
    ``size=`` is the gossip push, which fans a single argument tuple out
    to many targets and sums its size from parts it memoizes."""
    import ast
    import pathlib

    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    sizing_modules = {"repro.util.serialization", "repro.rmi.invocation"}
    offenders, sized_oneways = [], []
    for path in sorted(src.rglob("*.py")):
        where = path.relative_to(src)
        layer = where.parts[0]
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = ({node.module} if isinstance(node, ast.ImportFrom)
                           else {alias.name for alias in node.names})
                if layer == "p2p" and modules & sizing_modules:
                    offenders.append(f"{where}:{node.lineno} import")
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "attr",
                               getattr(node.func, "id", None))
                sized = any(kw.arg == "size" for kw in node.keywords)
                if name in ("OnewayMessage", "CallMessage") and layer != "rmi":
                    offenders.append(f"{where}:{node.lineno} {name}(...)")
                elif name == "call" and sized:
                    offenders.append(f"{where}:{node.lineno} call(size=)")
                elif name == "oneway" and sized:
                    sized_oneways.append(str(where))
    assert not offenders, offenders
    assert sized_oneways == ["gossip/agent.py"]


# ------------------------------------------------------- profiling harness


PROFILE_TOP_KEYS = {"function", "file", "line", "ncalls", "tottime_s", "cumtime_s"}


def test_profile_report_schema():
    from repro.obs.profile import profile_callable

    report, value = profile_callable(
        lambda: _poisson_run(n=8, peers=2, seed=1, convergence_threshold=1e-4),
        top_n=10,
    )
    assert value.converged
    data = report.as_dict()
    assert set(data) == {"total_time_s", "total_calls", "layers", "top",
                         "collector"}
    assert data["total_time_s"] > 0
    assert data["total_calls"] > 0
    for entry in data["layers"].values():
        assert set(entry) == {"time_s", "fraction"}
    # exclusive time partitions the total: fractions sum to ~1
    assert abs(sum(e["fraction"] for e in data["layers"].values()) - 1.0) < 1e-3
    # a simulator run must attribute time to the core layers
    for layer in ("kernel", "network", "rmi", "p2p", "numerics"):
        assert layer in data["layers"], layer
    assert 0 < len(data["top"]) <= 10
    for row in data["top"]:
        assert set(row) == PROFILE_TOP_KEYS
    # sorted by cumulative time, descending
    cums = [row["cumtime_s"] for row in data["top"]]
    assert cums == sorted(cums, reverse=True)
    text = report.to_text()
    assert "per-layer attribution" in text


def test_profile_report_collector_row():
    import gc

    from repro.obs.profile import profile_callable

    def three_full_passes():
        for _ in range(3):
            cycle = []
            cycle.append(cycle)
            del cycle
            gc.collect()

    hooks_before = list(gc.callbacks)
    report, _ = profile_callable(three_full_passes)
    assert gc.callbacks == hooks_before  # the meter is gone again
    row = report.as_dict()["collector"]
    assert set(row) == {"time_s", "fraction", "passes", "collected"}
    # three forced full passes (an automatic young one may ride along)
    assert row["passes"][2] == 3
    assert row["collected"] >= 3  # one self-referential list per pass
    assert row["time_s"] > 0
    # included in the layer rows, not a row of its own
    assert "collector" not in report.layers
    assert abs(sum(e["fraction"] for e in report.layers.values()) - 1.0) < 1e-3
    assert "garbage collector (included in the rows above)" in report.to_text()
    assert "passes gen0/1/2" in report.to_text()


def test_layer_mapping():
    from repro.obs.profile import layer_of

    assert layer_of("/x/src/repro/des/kernel.py") == "kernel"
    assert layer_of("/x/src/repro/net/network.py") == "network"
    assert layer_of("/x/src/repro/numerics/cg.py") == "numerics"
    assert layer_of("/x/src/repro/compute/plane.py") == "compute"
    assert layer_of("/x/src/repro/gossip/agent.py") == "gossip"
    assert layer_of("/usr/lib/python3.11/heapq.py") == "other"
    assert layer_of("~") == "other"


def test_every_repro_source_file_maps_to_a_named_layer():
    # a new package must add its LAYERS row: "other" is for frames outside
    # repro (stdlib, site-packages, C built-ins), never for our own code
    from pathlib import Path

    import repro
    from repro.obs.profile import OTHER_LAYER, layer_of

    files = sorted(Path(repro.__file__).parent.rglob("*.py"))
    assert files
    unmapped = [str(f) for f in files if layer_of(str(f)) == OTHER_LAYER]
    assert not unmapped, unmapped


def test_cli_profile_json(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "prof.json"
    rc = main(["profile", "--n", "8", "--peers", "2", "--seed", "1",
               "--top", "5", "--json", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "per-layer attribution" in captured.out
    data = json.loads(out.read_text())
    assert set(data) == {"total_time_s", "total_calls", "layers", "top",
                         "collector"}
    assert len(data["top"]) <= 5


# ------------------------------------------------------------- slots audit


def test_slots_audit_passes():
    import subprocess
    import sys
    from pathlib import Path

    repo = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "check_slots.py")],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_hot_classes_reject_stray_attributes():
    from repro.net.network import Message
    from repro.rmi.invocation import OnewayMessage

    msg = OnewayMessage("o", "m", (), {})
    with pytest.raises((AttributeError, TypeError)):
        msg.stray = 1
    wrapped = Message.__new__(Message)
    with pytest.raises((AttributeError, TypeError)):
        wrapped.stray = 1
