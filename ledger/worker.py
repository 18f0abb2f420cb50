"""One (workload, repeat): a fresh process that sets up, runs the timed region
once, verifies, and prints one JSON line.

``setup_s`` runs from the first line below to the start of the timed region:
``import repro`` (numpy and scipy included), ``build_cluster``, app and engine
construction.  ``peak_rss_mb`` is this process's ``ru_maxrss`` at exit.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


class Timed:
    """Marks a workload's timed region; profiles it in a traced run."""

    def __init__(self, traced: bool):
        self.profile = cProfile.Profile() if traced else None
        self.setup_s = self.wall_s = None

    def __enter__(self):
        self.setup_s = time.perf_counter() - T0
        self._start = time.perf_counter()
        if self.profile is not None:
            self.profile.enable()

    def __exit__(self, *exc):
        if self.profile is not None:
            self.profile.disable()
        self.wall_s = time.perf_counter() - self._start


def digest(stats: dict) -> str:
    """SHA-256 over the run's exact simulated statistics (JSON keeps every
    digit of a float), so equal digests mean bit-identical statistics."""
    exact = {k: stats[k] for k in ("ops", "failed_ops", "sim_cells", "steps",
                                   "counts")}
    blob = json.dumps(exact, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    from ledger.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    timed = Timed(args.traced)
    stats = workload.run(args.seed, workload.size(args.quick), timed)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "quick": args.quick,
        "traced": args.traced,
        "setup_s": timed.setup_s,
        "wall_s": timed.wall_s,
        # a run that did not converge has no time (and is a failed operation)
        "sim_s": sum(t for t in stats["sim_cells"] if t is not None),
        "digest": digest(stats),
        "knobs_applied": [],
        **stats,
    }
    if args.traced:
        from ledger.trace import fold

        out["layers"] = fold(timed.profile)
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
