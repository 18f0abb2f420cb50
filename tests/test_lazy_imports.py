"""Import laziness: a module imports at top level only what every one of its
importers runs.

No module of ``repro`` imports scipy at top level, and the paper's Poisson
path imports none at all: its matrices are
:class:`~repro.numerics.csr.CsrMatrix` values, built, split and multiplied
with numpy alone, and its inner CG solves map strips to their sine
eigenbasis with cached GEMMs.  So a control-plane run — Daemons and
Super-Peers that bootstrap, beat and gossip and never receive a task —
and a CG run on Poisson strips, the perf ledger's quick ``fig7_column``
and ``smallblock_churn`` workloads included, load no scipy module (nor
``numpy.ma``, which ``np.unique`` would import).  scipy
loads only where a scipy algorithm runs, on first use: the direct solve
(its DIA residual kernel and LAPACK factor: ``scipy.sparse`` and
``scipy.linalg``), the nonlinear app's Jacobian algebra
(``scipy.sparse``), reference solves.  The same rule holds for the standard
library: ``multiprocessing`` and ``concurrent.futures`` load when a
:class:`~repro.exec.SweepEngine` builds a pool, ``cProfile`` and
``pstats`` when ``profile_callable`` runs.
"""

import os
import subprocess
import sys
from pathlib import Path

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


def test_the_poisson_path_loads_no_scipy():
    code = ("import sys\n"
            "from repro.numerics import BlockDecomposition, Poisson2D\n"
            "prob = Poisson2D.manufactured(16)\n"
            "d = BlockDecomposition(prob.A, prob.b, nblocks=2, line=16)\n"
            "x = prob.A @ prob.b\n"
            "print(d.blocks[0].B_coupling.nnz)\n" + SCIPY_LOADED)
    assert _run(code) == "16\n[]"


def test_a_cg_run_loads_no_scipy_solver_module():
    code = ("import sys\n"
            "from repro.exec import RunSpec\n"
            "from repro.numerics.cg import dst_matrix\n"
            "run = RunSpec(n=16, peers=2, collect=True).run()\n"
            "print(run.converged, run.residual < 1e-3, "
            "dst_matrix.cache_info().currsize)\n" + SCIPY_LOADED)
    # the strips (12 lines of 16 points) solved in their eigenbasis: two
    # cached DST-I sizes; no scipy module at all, solver or other
    assert _run(code) == "True True 2\n[]"


def test_the_quick_cg_workloads_load_no_scipy():
    root = Path(__file__).resolve().parents[1]
    code = ("import contextlib, sys\n"
            f"sys.path.insert(0, {str(root)!r})\n"
            "from ledger.workloads import WORKLOADS\n"
            "for name in ('fig7_column', 'smallblock_churn'):\n"
            "    w = WORKLOADS[name]\n"
            "    stats = w.run(0, w.size(True), contextlib.nullcontext())\n"
            "    print(name, stats['failed_ops'])\n" + SCIPY_LOADED + "\n"
            "print('numpy.ma' in sys.modules)")
    # np.unique imports numpy.ma; the decomposition sorts and masks instead
    assert _run(code) == "fig7_column 0\nsmallblock_churn 0\n[]\nFalse"


def test_scipy_loads_where_a_scipy_algorithm_runs():
    code = ("import sys\n"
            "from repro.apps import NonlinearPoissonTask\n"
            "from repro.numerics import CgOperator, Poisson2D\n"
            "from repro.p2p import TaskContext\n"
            "def loaded():\n"
            "    return [m for m in ('scipy.sparse', 'scipy.linalg') "
            "if m in sys.modules]\n"
            "task = NonlinearPoissonTask()\n"
            "task.setup(TaskContext('t', 0, 2, {'n': 8}))\n"
            "task.load_state(task.initial_state())\n"
            "print(loaded())\n"
            "task.iterate({})\n"
            "print(loaded())\n"
            "prob = Poisson2D.manufactured(8)\n"
            "op = CgOperator(prob.A)\n"
            "print(op.solve_direct(prob.b).converged, loaded())")
    # the Jacobian's algebra loads scipy.sparse; the direct solve's LAPACK
    # factor adds scipy.linalg
    assert _run(code) == ("[]\n['scipy.sparse']\n"
                          "True ['scipy.sparse', 'scipy.linalg']")


def test_a_pooled_cg_sweep_loads_no_scipy_in_the_parent():
    code = ("import sys\n"
            "from repro.exec import RunSpec, SweepEngine\n"
            "runs = SweepEngine(workers=2).map("
            "[RunSpec(n=16, peers=2, seed=s) for s in (0, 1)])\n"
            "print(all(r.converged for r in runs))\n" + SCIPY_LOADED)
    assert _run(code) == "True\n[]"
