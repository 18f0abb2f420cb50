"""Compare two ledger results: ``python ledger/compare.py A.json B.json``.

A is the baseline, B the candidate.  One row per workload: for every
end-to-end metric B's median over A's median (the base is printed with it)
and a verdict against the metric's bound in ``ledger/metrics.py`` (the same
bounds ``BENCHMARK.json`` carries):

* ``unresolved``  the min-max ranges of A and B overlap by more than the
  bound, so the runs cannot tell a change of that size from noise;
* ``REGRESSION``  B's median is worse than A's by more than the bound;
* ``ok``          otherwise.

The row also says whether the simulated statistics (the determinism digest)
are identical or changed, and the failed share of each side.  Exit code 1 on
a regression or a higher failed share, 2 when the files cannot be compared
(quick sizes against full sizes).
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path[0:1] = [str(pathlib.Path(__file__).resolve().parent.parent)]

from ledger.metrics import END_TO_END  # noqa: E402


def verdict(metric: str, a: dict, b: dict) -> str:
    spec = END_TO_END[metric]
    sign = 1.0 if spec.better == "lower" else -1.0
    base = a["median"]
    overlap = (min(a["max"], b["max"]) - max(a["min"], b["min"])) / base
    if overlap > spec.bound:
        return "unresolved"
    if sign * (b["median"] - base) / base > spec.bound:
        return "REGRESSION"
    return "ok"


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(pathlib.Path(path).read_text()) for path in argv)
    if a["quick"] != b["quick"]:
        print("compare: refusing to compare quick sizes against full sizes")
        return 2
    if a["seed"] != b["seed"]:
        print(f"compare: seeds differ ({a['seed']} vs {b['seed']}): the "
              f"simulated statistics and sim_s follow the seed")

    bad = False
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name}: only in A")
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        cells = []
        for metric in END_TO_END:
            ma, mb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            outcome = verdict(metric, ma, mb)
            bad |= outcome == "REGRESSION"
            cells.append(f"{metric} {mb['median'] / ma['median']:.3f}x of "
                         f"{ma['median']:.4g} {ma['unit']} {outcome}")
        same = wa["digest"] == wb["digest"]
        share_a = wa["failed_ops"] / wa["ops"]
        share_b = wb["failed_ops"] / wb["ops"]
        bad |= share_b > share_a
        cells.append(f"simulated statistics "
                     f"{'identical' if same else 'changed'}")
        cells.append(f"failed {wb['failed_ops']}/{wb['ops']} against "
                     f"{wa['failed_ops']}/{wa['ops']}"
                     + (" HIGHER" if share_b > share_a else ""))
        print(f"{name}: " + " | ".join(cells))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
