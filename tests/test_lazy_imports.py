"""Import laziness: what every workload imports loads no scipy solver.

``scipy.linalg``, ``scipy.sparse.linalg`` and ``scipy.fft`` are imported
inside the first call that needs them (the direct solve's LAPACK factor,
reference solves), never at module level, so a run that does not use them
does not pay for them in its set-up time — nor, for a CG run, whose inner
solves map strips to their sine eigenbasis with cached GEMMs, in its
memory.
"""

import os
import subprocess
import sys
from pathlib import Path

LAZY = ("scipy.linalg", "scipy.sparse.linalg", "scipy.fft")

#: the packages a perf-ledger workload imports
WORKLOAD_IMPORTS = ("repro.apps", "repro.exec", "repro.experiments.figure7",
                    "repro.experiments.config", "repro.numerics", "repro.p2p")


def _run(code: str) -> str:
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src),
             "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def test_workload_imports_load_no_scipy_solver_module():
    code = "".join(f"import {name}\n" for name in WORKLOAD_IMPORTS)
    code += f"import sys\nprint([m for m in {LAZY!r} if m in sys.modules])"
    assert _run(code) == "[]"


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
