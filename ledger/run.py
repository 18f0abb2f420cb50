"""The perf ledger: five end-to-end workloads, decomposed by layer.

    python ledger/run.py [--seed N] [--repeats K] [--workload NAME]...
                         [--quick] [--out DIR] [--record] [--selfcheck]

runs every workload: each (workload, repeat) in a fresh single-threaded
worker process, one after the other (closed loop, one client).  End-to-end
numbers come from the untraced repeats; one extra traced run per workload
gives the per-layer rows.  Every metric is printed by name with its unit, the
outputs are verified, and ``--out DIR`` gets one JSON file.

The driver of ``BENCHMARK.json`` calls

    python3 ledger/run.py --quick --workload NAME --seed N --seconds S --trace 0|1

which measures one workload for S seconds and prints, as its last line,
``{"correct", "attempted", "failed", "metrics"}``: the gated end-to-end
metrics with ``--trace 0``, every per-layer metric with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
# import as the package ``ledger`` (the script's own directory would let
# ledger/trace.py shadow the stdlib's ``trace``) and find ``repro``
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"ledger: no program to measure: {ROOT / 'src' / 'repro'} is missing")

from ledger.layers import LAYERS, coverage_errors  # noqa: E402
from ledger.metrics import (COUNT_UNITS, END_TO_END, HIGHER_IS_BETTER,  # noqa: E402
                            PER_LAYER)
from ledger.workloads import WORKLOADS  # noqa: E402

WORKER_TIMEOUT_S = 170
WORKER_ENV = {
    **os.environ,
    "PYTHONPATH": str(ROOT / "src"),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def run_worker(name: str, seed: int, quick: bool, traced: bool) -> dict:
    command = [sys.executable, "-m", "ledger.worker", name, "--seed", str(seed)]
    command += ["--quick"] * quick + ["--traced"] * traced
    done = subprocess.run(command, cwd=ROOT, env=WORKER_ENV, text=True,
                          stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"ledger: worker {name} seed={seed} failed "
                 f"(exit {done.returncode})")
    return json.loads(done.stdout.splitlines()[-1])


def measure(name, seed, quick, traced, repeats=None, seconds=0.0) -> list:
    """Workers one after the other: ``repeats`` of them, or for ``seconds``."""
    runs = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        runs.append(run_worker(name, seed, quick, traced))
        now = time.perf_counter()
        if repeats is not None:
            if len(runs) >= repeats:
                return runs
        elif (now - start) + (now - began) > seconds:
            return runs


def spread(values) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def summarise(name: str, untraced: list, traced: list) -> dict:
    """One workload's record from its untraced and traced worker outputs."""
    first = untraced[0]
    runs = untraced + traced
    for run in untraced:
        run["wall_us_per_step"] = 1e6 * run["wall_s"] / run["steps"]
    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed_ops"] if r["digest"] == first["digest"] else r["ops"]
                 for r in runs)

    end_to_end = {
        metric: {**spread([r[metric] for r in untraced]), "unit": spec.unit}
        for metric, spec in END_TO_END.items()
    }
    wall = end_to_end["wall_s"]["median"]

    per_layer = dict.fromkeys(PER_LAYER)
    per_layer.update(first["counts"])
    per_layer["experiments.sim_s"] = first["sim_s"]
    if per_layer["des.events"]:
        per_layer["des.us_per_event"] = 1e6 * wall / per_layer["des.events"]
    if traced:
        layers = [r["layers"] for r in traced]
        for layer in LAYERS:
            per_layer[f"{layer}.self_s"] = statistics.median(
                t["self_s"][layer] for t in layers)
            per_layer[f"{layer}.calls"] = statistics.median(
                t["calls"][layer] for t in layers)
        per_layer["ext.unattributed_s"] = statistics.median(
            t["unattributed_s"] for t in layers)
        per_layer["obs.trace_overhead"] = statistics.median(
            r["wall_s"] for r in traced) / wall

    return {
        "why": WORKLOADS[name].why,
        "size": WORKLOADS[name].size(first["quick"]),
        "step": WORKLOADS[name].step,
        "knobs_applied": first["knobs_applied"],
        "ops": attempted,
        "failed_ops": failed,
        "digest": first["digest"],
        "digests_agree": all(r["digest"] == first["digest"] for r in runs),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "runs": [{k: r[k] for k in ("traced", "setup_s", "wall_s",
                                    "peak_rss_mb")} for r in runs],
    }


def print_record(name: str, record: dict) -> None:
    print(f"== {name}: {record['failed_ops']} of {record['ops']} operations "
          f"failed; simulated statistics "
          f"{'agree' if record['digests_agree'] else 'DIFFER'} between runs "
          f"({record['digest'][:12]})")
    for metric, row in record["end_to_end"].items():
        print(f"{metric:32} {row['median']:14.6g} {row['unit']:6} "
              f"min {row['min']:.6g}  max {row['max']:.6g}  n {row['n']}")
    for metric, value in record["per_layer"].items():
        shown = "null" if value is None else f"{value:14.6g}"
        print(f"{metric:32} {shown:>14} {PER_LAYER[metric]}")


def contract_result(record: dict, trace: int) -> dict:
    """The driver's result object for one measured workload."""
    if trace:
        # a counter the workload cannot reach reads 0 here (null in --out)
        metrics = {m: {"value": record["per_layer"][m] or 0, "unit": unit}
                   for m, unit in PER_LAYER.items()}
    else:
        metrics = {m: {"value": record["end_to_end"][m]["median"],
                       "unit": spec.unit}
                   for m, spec in END_TO_END.items() if spec.gated}
    return {"correct": record["failed_ops"] == 0, "attempted": record["ops"],
            "failed": record["failed_ops"], "metrics": metrics}


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def benchmark_json_errors() -> list:
    """Where BENCHMARK.json and the ledger's own tables disagree."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        "paths": ["ledger"],
        "workloads": [{"name": name, "why": w.why}
                      for name, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m, "unit": s.unit, "better": s.better, "bound": s.bound}
            for m, s in END_TO_END.items() if s.gated],
        "per_layer": [
            {"name": m, "unit": unit,
             "better": "higher" if m in HIGHER_IS_BETTER else "lower"}
            for m, unit in PER_LAYER.items()],
    }
    return [f"BENCHMARK.json {key} differs from the ledger's tables"
            for key, value in expected.items() if spec[key] != value]


def selfcheck(names, seed: int) -> int:
    """Layer coverage, BENCHMARK.json agreement, and one quick traced run per
    workload (whose fold fails when its rows miss the traced total)."""
    errors = coverage_errors() + benchmark_json_errors()
    for name in () if errors else names:
        run = run_worker(name, seed, quick=True, traced=True)
        errors += [f"{name}: counter {m} is not in ledger/metrics.py"
                   for m in sorted(set(run["counts"]) - set(COUNT_UNITS))]
        layers = run["layers"]
        share = sum(layers["self_s"].values()) / layers["total_s"]
        print(f"selfcheck: {name}: layer rows sum to {share:.2%} of the "
              f"traced total")
    for error in errors:
        print(f"selfcheck: {error}")
    print("selfcheck:", "FAILED" if errors else "ok")
    return 1 if errors else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="untraced runs per workload")
    parser.add_argument("--seconds", type=float,
                        help="measure each workload for this long instead of "
                             "--repeats times")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver mode, one workload: 0 skips the traced "
                             "run, 1 spends --seconds on traced runs; the "
                             "last line printed is the driver's result")
    parser.add_argument("--quick", action="store_true",
                        help="the small sizes (marked in the output; "
                             "compare.py refuses them against full sizes)")
    parser.add_argument("--out", type=pathlib.Path,
                        help="directory for the JSON result (none written "
                             "without it)")
    parser.add_argument("--record", action="store_true",
                        help="refresh ledger/reference/, the numbers the "
                             "README quotes")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    names = args.workload or list(WORKLOADS)

    if args.selfcheck:
        return selfcheck(names, args.seed)
    if args.trace is not None and (len(names) != 1 or args.seconds is None):
        parser.error("--trace needs exactly one --workload and --seconds")
    if args.record and (args.workload or args.trace is not None):
        parser.error("--record refreshes the whole reference: no --workload, "
                     "no --trace")

    records = {}
    for name in names:
        common = (name, args.seed, args.quick)
        if args.trace == 1:
            began = time.perf_counter()
            untraced = measure(*common, traced=False, repeats=1)
            traced = measure(
                *common, traced=True,
                seconds=args.seconds - (time.perf_counter() - began))
        else:
            repeats = None if args.seconds is not None else args.repeats
            untraced = measure(*common, traced=False, repeats=repeats,
                               seconds=args.seconds)
            traced = ([] if args.trace == 0
                      else measure(*common, traced=True, repeats=1))
        records[name] = summarise(name, untraced, traced)
        print_record(name, records[name])

    result = {"schema": 1, "quick": args.quick, "seed": args.seed,
              "machine": machine(), "workloads": records}
    stem = "quick" if args.quick else "full"
    targets = []
    if args.out is not None:
        targets.append(args.out / f"ledger-{stem}-seed{args.seed}.json")
    if args.record:
        targets.append(ROOT / "ledger" / "reference" / f"{stem}.json")
    for target in targets:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        print(f"wrote {target}")

    failed = sum(r["failed_ops"] for r in records.values())
    if args.trace is not None:
        print(json.dumps(contract_result(records[names[0]], args.trace)))
    return 0 if failed == 0 or args.trace is not None else 1


if __name__ == "__main__":
    sys.exit(main())
