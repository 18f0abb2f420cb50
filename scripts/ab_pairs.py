#!/usr/bin/env python
"""Alternating A/B pairs of one ledger workload in two checkouts.

    python scripts/ab_pairs.py PARENT CHANGE --workload W [--seed S] [--pairs N]

``PARENT`` and ``CHANGE`` are two checkouts of this repository (fresh
clones, say).  Each pair runs ``python -m ledger.worker W --seed S --quick``
once in each, the parent first in even pairs and the change first in odd
ones, one process at a time under the ledger's thread pins
(``OMP/OPENBLAS/MKL_NUM_THREADS=1``).  Both trees are byte-compiled first,
so neither side compiles ``repro`` inside its set-up window (that writes
only ``__pycache__`` directories).

The simulated statistics must agree: every run's determinism digest equals
every other's, within each side and across sides, or the script exits 1.
For each end-to-end metric ``BENCHMARK.json`` declares it prints both
sides' medians and min–max, the ratio of the medians (change ÷ parent), the
parent's interquartile range and in how many pairs the change read lower.
A performance claim quotes that table.  The script only reads ``ledger/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: the ledger worker's thread pins (``WORKER_ENV`` in ``ledger/run.py``)
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


def end_to_end_metrics() -> list[str]:
    """The end-to-end metric names ``BENCHMARK.json`` gates, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [row["name"] for row in spec["end_to_end"]]


def run_worker(tree: pathlib.Path, workload: str, seed: int) -> dict:
    """One fresh quick worker in ``tree``; its last stdout line, parsed."""
    env = {**os.environ, **THREAD_PINS, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "ledger.worker", workload, "--seed", str(seed),
         "--quick"],
        cwd=tree, env=env, text=True, stdout=subprocess.PIPE, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def metric(line: dict, name: str) -> float:
    """A worker line's value of one end-to-end metric (``wall_us_per_step``
    is derived as ``ledger/run.py`` derives it)."""
    if name == "wall_us_per_step":
        return 1e6 * line["wall_s"] / line["steps"]
    return line[name]


def summarise(pairs: list[tuple[dict, dict]], metrics: list[str]) -> dict:
    """Fold ``(parent line, change line)`` pairs into the comparison table.

    Returns the digests seen on each side, both sides' failed operations,
    and one row per metric: medians, min–max, the ratio of the medians,
    the parent's quartiles and the pairs in which the change read lower.
    """
    parents = [p for p, _ in pairs]
    changes = [c for _, c in pairs]
    rows = []
    for name in metrics:
        before = [metric(p, name) for p in parents]
        after = [metric(c, name) for c in changes]
        quartiles = (statistics.quantiles(before, n=4) if len(before) > 1
                     else [before[0]] * 3)
        rows.append({
            "metric": name,
            "parent_median": statistics.median(before),
            "parent_range": (min(before), max(before)),
            "parent_quartiles": (quartiles[0], quartiles[2]),
            "change_median": statistics.median(after),
            "change_range": (min(after), max(after)),
            "ratio": statistics.median(after) / statistics.median(before),
            "change_lower": sum(a < b for b, a in zip(before, after)),
            "pairs": len(pairs),
        })
    digests = {"parent": sorted({p["digest"] for p in parents}),
               "change": sorted({c["digest"] for c in changes})}
    return {
        "digests": digests,
        "digests_agree": len(set(digests["parent"] + digests["change"])) == 1,
        "failed_ops": {"parent": sum(p["failed_ops"] for p in parents),
                       "change": sum(c["failed_ops"] for c in changes)},
        "rows": rows,
    }


def render(summary: dict) -> str:
    """The table :func:`summarise` folded, as printed lines."""
    lines = [
        f"digests: parent {', '.join(d[:8] for d in summary['digests']['parent'])}"
        f"; change {', '.join(d[:8] for d in summary['digests']['change'])}"
        f" ({'agree' if summary['digests_agree'] else 'DIFFER'})",
        f"failed ops: parent {summary['failed_ops']['parent']}, "
        f"change {summary['failed_ops']['change']}",
        f"{'metric':<18} {'parent median (min–max)':<28} "
        f"{'change median (min–max)':<28} {'ratio':>7} {'parent IQR':<20} "
        "change lower",
    ]
    for row in summary["rows"]:
        lo, hi = row["parent_range"]
        clo, chi = row["change_range"]
        q1, q3 = row["parent_quartiles"]
        lines.append(
            f"{row['metric']:<18} "
            f"{_cell(row['parent_median'], lo, hi):<28} "
            f"{_cell(row['change_median'], clo, chi):<28} "
            f"×{row['ratio']:.3f} {f'{q1:.4g}–{q3:.4g}':<20} "
            f"{row['change_lower']}/{row['pairs']}")
    return "\n".join(lines)


def _cell(median: float, lo: float, hi: float) -> str:
    return f"{median:.4g} ({lo:.4g}–{hi:.4g})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                        "ledger"], cwd=tree, check=True)
    metrics = end_to_end_metrics()
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        lines = {side: run_worker(trees[side], args.workload, args.seed)
                 for side in order}
        pairs.append((lines["parent"], lines["change"]))
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): "
              + ", ".join(f"{name} {metric(lines['parent'], name):.4g} → "
                          f"{metric(lines['change'], name):.4g}"
                          for name in metrics), flush=True)
    summary = summarise(pairs, metrics)
    print(f"== {args.workload} seed {args.seed}, {args.pairs} alternating pairs")
    print(render(summary))
    return 0 if summary["digests_agree"] else 1


if __name__ == "__main__":
    sys.exit(main())
