"""``repro.exec`` — the sweep-execution engine.

The paper's evaluation (§7) is a grid of *independent* runs: Figure 7
alone is sizes x churn levels x repeats.  This package turns that fan-out
from a serial Python loop into a schedulable workload:

* :class:`RunSpec` (:mod:`repro.exec.spec`) — a frozen, hashable record of
  every input of one experiment run (``RunSpec(...).run()`` executes it),
  normalized (defaults filled in) and content-addressed: its :meth:`key`
  is a stable SHA-256 over the normalized fields **plus a fingerprint of
  the repro source tree**, so a code change invalidates old results
  automatically.
* :class:`RunCache` (:mod:`repro.exec.cache`) — an on-disk,
  content-addressed memo of completed runs (JSON under ``~/.cache/repro``
  by default).  Re-running a sweep with one changed axis only computes
  the delta.
* :class:`SweepEngine` (:mod:`repro.exec.engine`) — executes batches of
  specs, serially (``workers=1``, the bitwise reference arm) or on a
  ``ProcessPoolExecutor``.  Churn-window calibration pre-runs are
  content-addressed too, so one churn-free run per (n, seed) is shared by
  every churn level instead of being recomputed.  The parent counts
  specs, runs, memo/disk hits, iterations and data messages as plain ints.

Results are identical — field for field, bit for bit — across the serial,
parallel and cached arms: every stochastic decision in a run derives from
the spec's integer seed via the SHA-based :class:`repro.util.rng.RngTree`,
never from process state (``benchmarks/bench_parallel_sweep.py`` asserts
this on every run).
"""

from repro.exec.spec import RunSpec, code_fingerprint
from repro.exec.cache import RunCache, default_cache_dir
from repro.exec.engine import SweepEngine

__all__ = [
    "RunSpec",
    "code_fingerprint",
    "RunCache",
    "default_cache_dir",
    "SweepEngine",
]
