"""Import laziness: what every workload imports loads no scipy solver.

``scipy.linalg``, ``scipy.sparse.linalg`` and ``scipy.fft`` are imported
inside the first call that needs them (the direct solve's LAPACK factor,
reference solves), never at module level, so a run that does not use them
does not pay for them in its set-up time.
"""

import os
import subprocess
import sys
from pathlib import Path

LAZY = ("scipy.linalg", "scipy.sparse.linalg", "scipy.fft")

#: the packages a perf-ledger workload imports
WORKLOAD_IMPORTS = ("repro.apps", "repro.exec", "repro.experiments.figure7",
                    "repro.experiments.config", "repro.numerics", "repro.p2p")


def test_workload_imports_load_no_scipy_solver_module():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "".join(f"import {name}\n" for name in WORKLOAD_IMPORTS)
    code += f"import sys\nprint([m for m in {LAZY!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src),
             "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
