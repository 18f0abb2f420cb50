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
parent adds each executed run's iterations and data messages to its own
plain-int counters (:attr:`SweepEngine.stats`).

The pool uses the ``fork`` start method where available: children inherit
the parent's interpreter state (import cost ≈ 0, identical
``PYTHONHASHSEED``).  On platforms without ``fork`` the default method is
used; determinism still holds because nothing in a run depends on hash
randomization.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import ConfigurationError
from repro.exec.cache import RunCache
from repro.exec.spec import RunSpec

__all__ = ["SweepEngine"]


def _pool_context():
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _execute_in_worker(spec_dict: dict) -> dict:
    """Pool entry point: run one spec, return a picklable payload."""
    return RunSpec.from_dict(spec_dict).execute().to_dict()


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
    """

    def __init__(self, workers: int = 1, cache: RunCache | None = None):
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.workers = int(workers)
        self.cache = cache
        self._memo: dict[str, object] = {}
        #: specs handed to :meth:`map`, and those that ran a simulation
        self.specs_requested = 0
        self.runs_executed = 0
        #: specs answered without running, from the memo or the disk cache
        self.memo_hits = 0
        self.disk_hits = 0
        #: task iterations and data messages across executed runs
        self.iterations = 0
        self.data_messages = 0

    # -- public API -----------------------------------------------------------

    def run(self, spec: RunSpec):
        """Execute (or recall) a single spec."""
        return self.map([spec])[0]

    def map(self, specs) -> list:
        """Execute (or recall) every spec; results in submission order."""
        specs = [spec.normalized() for spec in specs]
        self.specs_requested += len(specs)

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
        """Execution counters."""
        return {
            "workers": self.workers,
            "specs_requested": self.specs_requested,
            "runs_executed": self.runs_executed,
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "iterations": self.iterations,
            "data_messages": self.data_messages,
        }

    # -- internals ------------------------------------------------------------

    def _execute_batch(self, specs: list[RunSpec]) -> None:
        """Bring every spec's result into the memo."""
        pending: dict[str, RunSpec] = {}
        for spec in specs:
            key = spec.key()
            if key in self._memo or key in pending:
                self.memo_hits += 1
                continue
            if self.cache is not None:
                cached = self.cache.get(spec)
                if cached is not None:
                    self._memo[key] = cached
                    self.disk_hits += 1
                    continue
            pending[key] = spec

        if not pending:
            return
        if self.workers == 1 or len(pending) == 1:
            for key, spec in pending.items():
                self._absorb(key, spec, spec.execute())
            return

        from concurrent.futures import ProcessPoolExecutor

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
            # collect in submission order so the memo fills deterministically
            for (key, spec), future in zip(items, futures):
                self._absorb(key, spec, RunResult.from_dict(future.result()))

    def _absorb(self, key: str, spec: RunSpec, result) -> None:
        """Record an executed run: memo, disk cache, counters."""
        self._memo[key] = result
        if self.cache is not None:
            self.cache.put(spec, result)
        self.runs_executed += 1
        self.iterations += result.total_iterations
        self.data_messages += result.data_messages
