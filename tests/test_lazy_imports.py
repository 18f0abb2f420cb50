"""Import laziness: a module imports at top level only what every one of its
importers runs.

No module of ``repro`` imports scipy at top level.  ``scipy.sparse`` is
imported inside the functions that build or test a sparse matrix (the
first ``poisson_matrix``, ``BlockDecomposition`` or ``CgOperator``), and
its C matvec kernels are bound on the first multiply; ``scipy.linalg``,
``scipy.sparse.linalg`` and ``scipy.fft`` are imported inside the first
call that needs them (the direct solve's LAPACK factor, reference solves).
So a control-plane run — Daemons and Super-Peers that bootstrap, beat and
gossip and never receive a task — loads no scipy at all, and a CG run,
whose inner solves map strips to their sine eigenbasis with cached GEMMs,
loads ``scipy.sparse`` but no solver module.  The same rule holds for the
standard library: ``multiprocessing`` and ``concurrent.futures`` load when
a :class:`~repro.exec.SweepEngine` builds a pool, ``cProfile`` and
``pstats`` when ``profile_callable`` runs.
"""

import os
import subprocess
import sys
from pathlib import Path

LAZY = ("scipy.linalg", "scipy.sparse.linalg", "scipy.fft")

#: the packages a perf-ledger workload imports
WORKLOAD_IMPORTS = ("repro.apps", "repro.exec", "repro.experiments.figure7",
                    "repro.experiments.config", "repro.numerics", "repro.p2p")

#: prints the loaded modules of the scipy package
SCIPY_LOADED = ("print([m for m in sys.modules "
                "if m.partition('.')[0] == 'scipy'])")


def _run(code: str) -> str:
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src),
             "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def test_workload_imports_and_the_cli_load_no_scipy():
    code = "".join(f"import {name}\n" for name in (*WORKLOAD_IMPORTS,
                                                   "repro.cli"))
    code += ("import sys\n" + SCIPY_LOADED + "\n"
             "print([m for m in ('multiprocessing', 'concurrent.futures', "
             "'cProfile', 'pstats') if m in sys.modules])")
    assert _run(code) == "[]\n[]"


def test_a_control_plane_run_loads_no_scipy():
    code = (
        "import sys\n"
        "from repro.experiments.config import EXPERIMENT_CONFIG\n"
        "from repro.faults import FaultInjector, FaultPlan, SuperPeerCrash\n"
        "from repro.p2p import build_cluster\n"
        "config = EXPERIMENT_CONFIG.with_(superpeer_tiers=3, "
        "superpeer_fanout=2, gossip_enabled=True)\n"
        "cluster = build_cluster(n_daemons=40, n_superpeers=4, seed=7, "
        "config=config)\n"
        "plan = FaultPlan.of(SuperPeerCrash(time=0.3, downtime=0.3))\n"
        "injector = FaultInjector(cluster.sim, plan, "
        "rng=cluster.rng.child('faults'), cluster=cluster)\n"
        "cluster.sim.run(until=1.5)\n"
        "print(len(cluster.superpeers), len(injector.executed), "
        "sum(sp.registered_count() for sp in cluster.leaf_superpeers))\n"
        + SCIPY_LOADED)
    # 4 leaves under two interior tiers; the crash fired, and every Daemon
    # is registered after it
    assert _run(code) == "7 1 40\n[]"


def test_the_first_poisson_matrix_loads_scipy_sparse_and_no_solver():
    code = ("import sys\n"
            "from repro.numerics import Poisson2D\n"
            "before = 'scipy.sparse' in sys.modules\n"
            "Poisson2D.manufactured(8)\n"
            "print(before, 'scipy.sparse' in sys.modules, "
            f"[m for m in {LAZY!r} if m in sys.modules])")
    assert _run(code) == "False True []"


def test_a_cg_run_loads_no_scipy_solver_module():
    code = ("import sys\n"
            "from repro.exec import RunSpec\n"
            "from repro.numerics.cg import dst_matrix\n"
            "assert RunSpec(n=16, peers=2).run().converged\n"
            "print(dst_matrix.cache_info().currsize, "
            f"[m for m in {LAZY!r} if m in sys.modules])")
    # the strips (12 lines of 16 points) solved in their eigenbasis: two
    # cached DST-I sizes
    assert _run(code) == "2 []"


def test_a_pooled_sweep_loads_scipy_sparse_in_the_parent_before_forking():
    code = ("import sys\n"
            "from repro.exec import RunSpec, SweepEngine\n"
            "before = 'scipy.sparse' in sys.modules\n"
            "runs = SweepEngine(workers=2).map("
            "[RunSpec(n=16, peers=2, seed=s) for s in (0, 1)])\n"
            "print(before, all(r.converged for r in runs), "
            "'scipy.sparse' in sys.modules)")
    # the parent itself builds no matrix: it loaded scipy.sparse for its
    # forked workers to inherit
    assert _run(code) == "False True True"
