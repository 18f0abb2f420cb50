"""Golden runs: whole-run results pinned field by field.

``tests/golden/runs.json`` holds what each configuration below produced when
the file was recorded.  Every fast path in the runtime (shared decomposition,
cached operators, size memos, the coalesced oneway, the compute plane,
zero-copy payloads) is bound by it: a change that moves a simulated time, an
event count or a byte on the wire fails here with the field named.

Every field is compared exactly except ``residual``, a norm over the
assembled solution that may see the BLAS build: it passes within 1e-9
relative *or* 1e-12 absolute, whichever is looser (``pytest.approx`` adds
its default ``abs=1e-12`` unless told otherwise, so both are written out).
To regenerate after an *intended* change of simulated behaviour::

    PYTHONPATH=src python -m tests.test_golden_runs

which prints every field that moved as ``old → new`` and leaves the file
untouched when none did.  The file's ``machine`` block says where it was
recorded: the OpenBLAS kernel and thread count numpy runs with, and the
numpy and scipy versions.  A mismatch names it beside the running one
first, since a residual (and, through a BLAS-dependent solve, a timeline)
may move with the BLAS build rather than with the code.
"""

import ctypes
import importlib.metadata
import json
import pathlib

import numpy as np
import pytest

from repro.apps import make_poisson_app
from repro.checkpoint import FixedPolicy
from repro.exec import RunSpec
from repro.experiments.config import EXPERIMENT_LINK_SCALE, optimal_overlap
from repro.faults import scenario
from repro.numerics import Poisson2D
from repro.p2p import P2PConfig, build_cluster, launch_application
from tests.helpers import clear_caches

GOLDEN = pathlib.Path(__file__).parent / "golden" / "runs.json"


def machine() -> dict:
    """The BLAS and library versions this process computes with.

    The kernel and thread count come from the OpenBLAS that numpy's wheel
    bundles (``numpy.libs``), asked through its own exports; a numpy built
    against another BLAS reports ``None`` for both."""
    kernel = threads = None
    libs = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        blas = ctypes.CDLL(str(path))
        blas.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
        kernel = blas.scipy_openblas_get_corename64_().decode()
        threads = blas.scipy_openblas_get_num_threads64_()
    return {"openblas_core": kernel, "openblas_threads": threads,
            "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy")}


def _where(recorded: dict) -> str:
    def spell(m):
        return (f"OpenBLAS {m['openblas_core']} on {m['openblas_threads']} "
                f"thread(s), numpy {m['numpy']}, scipy {m['scipy']}")
    return f"recorded under {spell(recorded)}, running under {spell(machine())}"


def _driver(**kw):
    def run():
        fields = RunSpec(**kw).run().to_dict()
        del fields["run_report"]  # untraced runs carry none
        return fields
    return run


def _direct():
    """A hand-assembled direct-solve run, so the cluster's kernel, network and
    compute plane stay reachable for their counters."""
    n, peers = 64, 8
    cluster = build_cluster(
        n_daemons=peers, n_superpeers=3, seed=0,
        # quiet protocol layer: the inner solves and boundary payloads are
        # the traffic, not failure detection or checkpoints
        config=P2PConfig(heartbeat_period=30.0, heartbeat_timeout=95.0,
                         monitor_period=30.0, standby_takeover_timeout=95.0,
                         stability_window=3),
        link_scale=EXPERIMENT_LINK_SCALE,
        checkpoint=FixedPolicy(count=20, frequency=10_000))
    app = make_poisson_app(
        "poisson", n=n, num_tasks=peers, overlap=optimal_overlap(n, peers),
        inner_solver="direct", convergence_threshold=1e-6)
    spawner = launch_application(cluster, app)
    sim = cluster.sim
    sim.run(until=sim.any_of([spawner.done, sim.timeout(3600.0)]))
    assert spawner.done.triggered
    collect = sim.process(spawner.collect_solution())
    sim.run(until=collect)
    x = np.zeros(n * n)
    for offset, values in collect.value.values():
        x[offset:offset + len(values)] = values
    return {
        "simulated_time": spawner.execution_time,
        "total_iterations": cluster.telemetry.total_iterations,
        "data_messages": cluster.telemetry.data_messages_sent,
        "event_count": sim.event_count,
        "network": cluster.network.stats(),
        "compute": cluster.compute.stats(),
        "residual": float(Poisson2D.manufactured(n).residual_norm(x)),
    }


RUNS = {
    "flat": _driver(n=16, peers=4, seed=3, convergence_threshold=1e-6),
    "tiered_wheel": _driver(
        n=16, peers=4, seed=1, n_daemons=12, n_superpeers=4,
        config=P2PConfig(superpeer_tiers=2, superpeer_fanout=4),
        convergence_threshold=1e-5),
    "churn": _driver(n=16, peers=3, seed=7, disconnections=2,
                     convergence_threshold=1e-4),
    "dirty_channel": _driver(n=16, peers=3, seed=11,
                             faults=scenario("dirty-channel"),
                             convergence_threshold=1e-6),
    "superpeer_outage": _driver(n=16, peers=3, seed=11,
                                faults=scenario("superpeer-outage"),
                                convergence_threshold=1e-6),
    "gossip": _driver(n=16, peers=3, seed=11, gossip=True,
                      convergence_threshold=1e-6),
    "direct": _direct,
}


def _record(name):
    clear_caches()  # each run pays its own builds, whatever ran before it
    return RUNS[name]()


@pytest.mark.parametrize("name", RUNS)
def test_golden_run(name):
    golden = json.loads(GOLDEN.read_text())
    expected = golden[name]
    got = _record(name)
    where = _where(golden["machine"])
    assert got.pop("residual") == pytest.approx(expected.pop("residual"),
                                                rel=1e-9, abs=1e-12), where
    assert got == expected, where


def test_golden_runs_exercise_what_they_pin():
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == set(RUNS) | {"machine"}
    assert set(golden["machine"]) == set(machine())
    assert all(golden[name]["converged"] for name in RUNS
               if name != "direct")
    assert golden["churn"]["recoveries"] >= 1
    assert golden["dirty_channel"]["messages_corrupted"] > 0
    assert golden["superpeer_outage"]["faults_executed"] > 0
    # fewer canonical operators than the run's 8 tasks: strips are shared
    assert golden["direct"]["compute"]["cohorts"] < 8
    assert golden["direct"]["compute"]["memo_hits"] > 0


def test_no_op_kernel_events_before_launch_move_nothing(monkeypatch):
    """Simulated results do not depend on how many kernel events the
    runtime spends: 100 no-op callbacks scheduled just before launch leave
    every result field as recorded, and add exactly 100 to the count."""
    from repro.experiments import driver

    def perturbed(launch):
        def launch_after_no_ops(cluster, *args, **kwargs):
            for _ in range(100):
                cluster.sim.call_later(0.0, int)
            return launch(cluster, *args, **kwargs)
        return launch_after_no_ops

    monkeypatch.setattr(driver, "launch_application",
                        perturbed(driver.launch_application))
    monkeypatch.setitem(globals(), "launch_application",
                        perturbed(launch_application))
    golden = json.loads(GOLDEN.read_text())
    for name in ("churn", "direct"):
        expected, got = golden[name], _record(name)
        if name == "direct":
            expected["event_count"] += 100
        assert got.pop("residual") == pytest.approx(
            expected.pop("residual"), rel=1e-9, abs=1e-12)
        assert got == expected, name


def _moved(old, new, path=""):
    """``path: old → new`` for every leaf field that differs."""
    for key in sorted(old.keys() | new.keys()):
        was, now = old.get(key), new.get(key)
        if isinstance(was, dict) and isinstance(now, dict):
            yield from _moved(was, now, f"{path}{key}.")
        elif was != now:
            yield f"{path}{key}: {was!r} → {now!r}"


if __name__ == "__main__":
    # the runs alone decide whether anything moved; the machine block is
    # rewritten with them, so it names where the pinned values came from
    golden = json.loads(GOLDEN.read_text())
    recorded = {name: _record(name) for name in RUNS}
    moved = list(_moved({k: v for k, v in golden.items() if k in RUNS},
                        recorded))
    print("\n".join(moved) or f"{GOLDEN.name}: nothing moved")
    if moved:
        GOLDEN.write_text(json.dumps({**recorded, "machine": machine()},
                                     indent=2, sort_keys=True) + "\n")
