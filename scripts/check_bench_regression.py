#!/usr/bin/env python
"""Gate freshly measured BENCH_*.json files against committed baselines.

Usage::

    # one file pair
    python scripts/check_bench_regression.py BASELINE.json FRESH.json

    # every known BENCH_*.json present in both directories
    python scripts/check_bench_regression.py /tmp/bench-baselines .

Each benchmark file is judged by the per-file metric table below.  Checks
are ratio-based so they are machine-independent: speedups and overhead
fractions are measured against a sibling arm in the same job, so CI
runners and developer laptops agree on them even though absolute
wall-clocks differ.  A "higher is better" metric must not fall more than
its allowed fraction below the committed baseline; a "lower is better"
metric must not rise more than its allowed fraction above it.

``--max-regression`` (compatibility flag) overrides the allowed fraction
for every gated metric.

Exit status: 0 when all gates pass, 1 on regression or malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Gate:
    metric: str
    higher_is_better: bool
    #: allowed fractional drift from the baseline value
    max_regression: float
    #: absolute backstop on the bound.  Lower-is-better: the bound never
    #: drops below this (loosens gates whose baseline hovers near zero).
    #: Higher-is-better: the fresh value must also clear this (enforces a
    #: hard minimum regardless of what the baseline recorded).
    floor: float | None = None
    #: self-arming gates: apply only when the FRESH measurement carries a
    #: truthy value under this key.  Lets a benchmark that depends on the
    #: runner's hardware (e.g. parallel speedup needs >= `workers` cores)
    #: record honestly on weak machines without tripping the gate there,
    #: while capable runners enforce it.
    arm_key: str | None = None


#: every gated benchmark artifact and its metrics
GATES: dict[str, tuple[Gate, ...]] = {
    # process-pool sweep + run cache (benchmarks/bench_parallel_sweep.py);
    # parallel_speedup needs real cores: the benchmark sets speedup_gated
    # only when the runner has >= workers CPUs, so the gate self-arms on
    # capable machines (floor = the benchmark's own MIN_PARALLEL_SPEEDUP)
    # and stands down on 1-CPU boxes; cached_fraction baselines near zero,
    # so it gets the absolute floor the benchmark itself asserts
    "BENCH_parallel_sweep.json": (
        Gate("parallel_speedup", True, 0.35, floor=2.0,
             arm_key="speedup_gated"),
        Gate("cached_fraction", False, 4.0, floor=0.05),
    ),
    # swarm-scale run (benchmarks/bench_swarm.py): a >= 10k-Daemon tiered
    # wheel-mode run must stay tractable.  events_per_sec is wall-clock
    # dependent, hence the wide allowance plus an absolute floor (raised
    # once by the kernel/message-plane throughput overhaul, and again by
    # the batched compute plane re-recording the baseline at >= 1.5x the
    # overhaul's 39k events/s);
    # heartbeat_collapse_ratio (process-mode events / wheel-mode events at
    # identical scale) is deterministic and machine-independent
    "BENCH_swarm.json": (
        Gate("daemons", True, 0.05, floor=10_000),
        Gate("events_per_sec", True, 0.50, floor=59_000),
        Gate("peak_rss_mb", False, 0.25, floor=200.0),
        Gate("heartbeat_collapse_ratio", True, 0.30, floor=1.5),
    ),
    # disabled-tracer guard cost ratios (benchmarks/bench_obs_overhead.py);
    # nanosecond-scale timing, so the allowance is deliberately loose —
    # the hard <5% budget is asserted inside the benchmark itself
    "BENCH_obs_overhead.json": (
        Gate("des_guard_over_event", False, 4.0),
        Gate("rmi_guard_over_call", False, 4.0),
    ),
    # armed-but-idle fault plan vs plain run (benchmarks/bench_faults.py);
    # the baseline hovers around zero, so the gate is the absolute 5%
    # budget the benchmark itself asserts rather than a relative drift
    "BENCH_faults.json": (
        Gate("overhead_fraction", False, 4.0, floor=0.05),
    ),
    # decentralized control plane (benchmarks/bench_gossip.py): the
    # disabled-guard bound hovers near zero (same treatment as the other
    # overhead gates — the hard <5% budget lives in the benchmark);
    # takeover latency is *simulated* time, deterministic per seed, so the
    # allowance is a drift pin, with an absolute 1s grace for intentional
    # protocol retunes (beat period, probe timeout)
    "BENCH_gossip.json": (
        Gate("overhead_fraction", False, 4.0, floor=0.05),
        Gate("takeover_latency_s", False, 0.5, floor=1.0),
    ),
    # adaptive-vs-fixed checkpoint strategy sweep
    # (benchmarks/bench_checkpoint_policy.py): simulated-time accounting,
    # deterministic per seed, so the allowance is a drift pin; the floor
    # is the issue's acceptance criterion — adaptive must cut wasted work
    # across the churn scenarios by at least 20%
    "BENCH_checkpoint.json": (
        Gate("wasted_work_reduction", True, 0.5, floor=0.20),
    ),
}


#: schema gate: keys every fresh measurement must carry with a truthy,
#: non-empty value.  Catches a benchmark silently dropping an arm (e.g.
#: the profiled ledger) without anyone noticing until the data is needed.
REQUIRED_KEYS: dict[str, tuple[str, ...]] = {
    "BENCH_swarm.json": (
        "converged", "events", "wall_seconds", "events_per_sec",
        "peak_rss_mb", "heartbeat_collapse_ratio", "profile_top",
    ),
    "BENCH_gossip.json": (
        "takeover_converged", "takeover_latency_s", "events",
    ),
    # scenarios must carry the full per-scenario breakdown; a bench
    # silently dropping an arm or the churn aggregate must fail here
    "BENCH_checkpoint.json": (
        "scenarios", "churn_scenarios", "fixed_wasted_seconds",
        "adaptive_wasted_seconds",
    ),
}


def check_file(name: str, baseline_path: Path, fresh_path: Path,
               override: float | None) -> bool:
    """Apply every gate for ``name``; prints a verdict line per metric."""
    gates = GATES.get(name)
    if gates is None:
        print(f"{name}: no gate registered — skipping")
        return True
    try:
        baseline = json.loads(baseline_path.read_text())
        fresh = json.loads(fresh_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {name}: {exc}", file=sys.stderr)
        return False

    ok = True
    for key in REQUIRED_KEYS.get(name, ()):
        value = fresh.get(key)
        if not value:
            print(f"error: {name}: required key {key!r} missing or empty "
                  f"in fresh measurement (got {value!r})", file=sys.stderr)
            ok = False
        else:
            print(f"{name}: required key {key} present OK")
    for gate in gates:
        allowed = override if override is not None else gate.max_regression
        if gate.arm_key is not None and not fresh.get(gate.arm_key):
            print(f"{name}: {gate.metric} gate disarmed "
                  f"({gate.arm_key!r} falsy in fresh measurement) — skipping")
            continue
        try:
            base_value = float(baseline[gate.metric])
            new_value = float(fresh[gate.metric])
        except (KeyError, TypeError, ValueError) as exc:
            print(f"error: {name}: metric {gate.metric!r} unreadable: {exc}",
                  file=sys.stderr)
            ok = False
            continue
        if gate.higher_is_better:
            bound = (1.0 - allowed) * base_value
            if gate.floor is not None:
                bound = max(bound, gate.floor)
            passed = new_value >= bound
            relation = ">="
        else:
            bound = (1.0 + allowed) * base_value
            if gate.floor is not None:
                bound = max(bound, gate.floor)
            passed = new_value <= bound
            relation = "<="
        verdict = "OK" if passed else "REGRESSION"
        print(f"{name}: {gate.metric} = {new_value:.4g} "
              f"(baseline {base_value:.4g}, must be {relation} {bound:.4g}) "
              f"{verdict}")
        ok = ok and passed
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", type=Path,
                    help="committed BENCH_*.json file, or a directory of them")
    ap.add_argument("fresh", type=Path,
                    help="freshly measured file/directory")
    ap.add_argument(
        "--max-regression", type=float, default=None,
        help="override every gate's allowed fractional drift")
    args = ap.parse_args()

    if args.baseline.is_dir() != args.fresh.is_dir():
        print("error: baseline and fresh must both be files or both be "
              "directories", file=sys.stderr)
        return 1

    ok = True
    if args.baseline.is_dir():
        checked = 0
        for name in sorted(GATES):
            base, new = args.baseline / name, args.fresh / name
            if not base.exists():
                print(f"{name}: no committed baseline — skipping")
                continue
            if not new.exists():
                print(f"error: {name}: baseline exists but no fresh "
                      f"measurement at {new}", file=sys.stderr)
                ok = False
                continue
            ok = check_file(name, base, new, args.max_regression) and ok
            checked += 1
        if checked == 0 and ok:
            print("error: no benchmark files gated", file=sys.stderr)
            ok = False
    else:
        ok = check_file(args.fresh.name, args.baseline, args.fresh,
                        args.max_regression)

    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
