"""The sweep engine: process-pool execution of independent runs.

:class:`SweepEngine.map` takes a batch of :class:`RunSpec`\\ s and returns
their :class:`~repro.experiments.driver.RunResult`\\ s in order.  Three
execution tiers, cheapest first:

1. **memo** — an in-engine dict keyed by spec content address.  This is
   what shares the churn-window calibration pre-run across churn levels
   (and deduplicates identical cells) even when no disk cache is set;
2. **disk** — the optional :class:`~repro.exec.cache.RunCache`;
3. **execute** — in-process when ``workers == 1`` (the bitwise reference
   arm, byte-for-byte today's serial loops) or on a
   ``ProcessPoolExecutor`` otherwise.

Churn specs with an unset window are resolved in two waves exactly like
the driver does it: the engine first executes each distinct churn-free
calibration spec, then re-submits the churn runs with
``churn_window=calibration.simulated_time`` (or returns the unconverged
calibration itself, mirroring :func:`execute_spec`).  Because every
stochastic choice in a run derives from the spec's seed through the
SHA-based :class:`~repro.util.rng.RngTree`, results are identical across
tiers, worker counts and processes.

Workers transport results as :meth:`RunResult.to_dict` payloads (the
lossless round-trip is pinned by ``tests/test_exec_engine.py``), and the
parent folds each run's telemetry — iterations, messages, checkpoints,
wall seconds, trace event counts of ``traced`` specs — into its own
:class:`~repro.obs.MetricsRegistry`, so sweep-level dashboards and
:class:`~repro.obs.RunReport`\\ s keep working under parallelism.

The pool uses the ``fork`` start method where available: children inherit
the parent's interpreter state (import cost ≈ 0, identical
``PYTHONHASHSEED``).  On platforms without ``fork`` the default method is
used; determinism still holds because nothing in a run depends on hash
randomization.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from repro.exec.cache import RunCache
from repro.exec.spec import RunSpec
from repro.obs.metrics import MetricsRegistry

__all__ = ["SweepEngine"]


def _pool_context():
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _execute_in_worker(spec_dict: dict) -> dict:
    """Pool entry point: run one spec, return a picklable payload."""
    spec = RunSpec.from_dict(spec_dict)
    start = time.perf_counter()
    result = spec.execute()
    return {
        "result": result.to_dict(),
        "wall_seconds": time.perf_counter() - start,
    }


class SweepEngine:
    """Executes :class:`RunSpec` batches with caching and parallelism.

    Parameters
    ----------
    workers:
        Process count.  ``1`` (the default) executes in-process, serially,
        in submission order — the reference arm.
    cache:
        Optional :class:`RunCache`; completed runs are read from and
        written to it.  The in-memory memo is always on.
    registry:
        Optional :class:`MetricsRegistry` to merge run telemetry into;
        a private one is created by default (see :attr:`registry`).
    """

    def __init__(
        self,
        workers: int = 1,
        cache: RunCache | None = None,
        registry: MetricsRegistry | None = None,
    ):
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.workers = int(workers)
        self.cache = cache
        self.registry = registry if registry is not None else MetricsRegistry()
        self._memo: dict[str, object] = {}
        r = self.registry
        self._m_requested = r.counter(
            "sweep_specs_requested", "specs handed to SweepEngine.map")
        self._m_executed = r.counter(
            "sweep_runs_executed", "specs that actually ran a simulation")
        self._m_hits = r.counter(
            "sweep_cache_hits", "specs answered without running, by source")
        self._m_wall = r.histogram(
            "sweep_run_wall_seconds", "wall-clock seconds per executed run")
        self._m_iterations = r.counter(
            "sweep_iterations", "total task iterations across executed runs")
        self._m_data_msgs = r.counter(
            "sweep_data_messages", "data messages across executed runs")
        self._m_checkpoints = r.counter(
            "sweep_checkpoints", "checkpoints sent across executed runs")
        self._m_trace = r.counter(
            "sweep_trace_events", "trace events of traced runs, by category/kind")

    # -- public API -----------------------------------------------------------

    def run(self, spec: RunSpec):
        """Execute (or recall) a single spec."""
        return self.map([spec])[0]

    def map(self, specs) -> list:
        """Execute (or recall) every spec; results in submission order."""
        specs = [spec.normalized() for spec in specs]
        self._m_requested.inc(len(specs))

        # wave 1: every distinct churn-window calibration pre-run
        calibrations: dict[str, RunSpec] = {}
        for spec in specs:
            if spec.needs_calibration():
                calib = spec.calibration_spec()
                calibrations.setdefault(calib.key(), calib)
        if calibrations:
            self._execute_batch(list(calibrations.values()))

        # wave 2: the runs themselves, windows filled in
        resolved: list[tuple[str, object]] = []
        batch: list[RunSpec] = []
        for spec in specs:
            if spec.needs_calibration():
                calibration = self._memo[spec.calibration_spec().key()]
                if not calibration.converged:
                    # mirror the driver: an unconverged calibration IS the
                    # run's result
                    resolved.append(("done", calibration))
                    continue
                spec = replace(spec, churn_window=calibration.simulated_time)
            resolved.append(("spec", spec))
            batch.append(spec)
        self._execute_batch(batch)

        return [
            payload if tag == "done" else self._memo[payload.key()]
            for tag, payload in resolved
        ]

    @property
    def stats(self) -> dict:
        """Execution counters (also queryable via :attr:`registry`)."""
        return {
            "workers": self.workers,
            "specs_requested": int(self._m_requested.total),
            "runs_executed": int(self._m_executed.total),
            "memo_hits": int(self._m_hits.value(source="memory")),
            "disk_hits": int(self._m_hits.value(source="disk")),
        }

    # -- internals ------------------------------------------------------------

    def _execute_batch(self, specs: list[RunSpec]) -> None:
        """Bring every spec's result into the memo."""
        pending: dict[str, RunSpec] = {}
        for spec in specs:
            key = spec.key()
            if key in self._memo:
                self._m_hits.inc(source="memory")
                continue
            if key in pending:
                self._m_hits.inc(source="memory")
                continue
            if self.cache is not None:
                cached = self.cache.get(spec)
                if cached is not None:
                    self._memo[key] = cached
                    self._m_hits.inc(source="disk")
                    continue
            pending[key] = spec

        if not pending:
            return
        if self.workers == 1 or len(pending) == 1:
            for key, spec in pending.items():
                start = time.perf_counter()
                result = spec.execute()
                self._absorb(key, spec, result, time.perf_counter() - start)
            return

        from repro.experiments.driver import RunResult

        items = list(pending.items())
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(items)),
            mp_context=_pool_context(),
        ) as pool:
            futures = [
                pool.submit(_execute_in_worker, spec.to_dict())
                for _, spec in items
            ]
            # collect in submission order so metric merges are deterministic
            for (key, spec), future in zip(items, futures):
                payload = future.result()
                result = RunResult.from_dict(payload["result"])
                self._absorb(key, spec, result, payload["wall_seconds"])

    def _absorb(self, key: str, spec: RunSpec, result, wall: float) -> None:
        """Record an executed run: memo, disk cache, parent metrics."""
        self._memo[key] = result
        if self.cache is not None:
            self.cache.put(spec, result)
        self._m_executed.inc()
        self._m_wall.observe(wall)
        self._m_iterations.inc(result.total_iterations)
        self._m_data_msgs.inc(result.data_messages)
        self._m_checkpoints.inc(result.checkpoints_sent)
        if result.run_report is not None:
            for (category, kind), count in result.run_report.event_counts.items():
                self._m_trace.inc(count, category=category, kind=kind)
