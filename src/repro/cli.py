"""Command-line interface for the experiment harness.

Usage::

    python -m repro.cli run --n 48 --peers 8 --disconnections 3
    python -m repro.cli figure7 [--quick] --workers 4
    python -m repro.cli iterations
    python -m repro.cli syncasync --disconnections 3
    python -m repro.cli ablation {checkpoint,backup,overlap,bootstrap}
    python -m repro.cli trace --disconnections 3 --out run.jsonl
    python -m repro.cli report --disconnections 3
    python -m repro.cli profile --n 16 --peers 3 --top 15 --json prof.json
    python -m repro.cli faults list
    python -m repro.cli faults run perfect-storm --quick
    python -m repro.cli cache {stats,clear}

Every subcommand prints the same table its benchmark counterpart records
under ``benchmarks/results/``.  ``trace`` and ``report`` run a single
traced execution through :mod:`repro.obs`: ``trace`` dumps the structured
event stream (JSONL and/or Chrome ``trace_event`` JSON for
``chrome://tracing`` / Perfetto), ``report`` renders the run report.

The sweep-shaped subcommands (``run``, ``figure7``, ``iterations``,
``syncasync``, ``ablation``, ``faults run``) execute through
:class:`repro.exec.SweepEngine`:
``--workers N`` fans independent runs out over N processes, and completed
runs are memoized in the content-addressed on-disk cache (``--cache-dir``,
default ``~/.cache/repro``; ``--no-cache`` disables it).  Results are
identical for any worker count and for cached replay.  ``cache`` inspects
(``stats``) or empties (``clear``) that cache.
"""

from __future__ import annotations

import argparse
import sys

from repro.exec import RunCache, RunSpec, SweepEngine, default_cache_dir
from repro.experiments import (
    figure7_sweep,
    iterations_vs_n,
    sync_vs_async,
)
from repro.experiments.ablations import (
    backup_count_ablation,
    bootstrap_scaling,
    checkpoint_frequency_ablation,
    overlap_ablation,
)
from repro.experiments.report import format_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Regenerate the JaceP2P paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # execution flags shared by every sweep-shaped subcommand
    exec_flags = argparse.ArgumentParser(add_help=False)
    exec_flags.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="run independent executions on N processes (default 1: serial)")
    exec_flags.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help=f"run-cache directory (default {default_cache_dir()})")
    exec_flags.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the on-disk run cache")

    # checkpoint-strategy flags shared by the run-shaped subcommands
    policy_flags = argparse.ArgumentParser(add_help=False)
    policy_flags.add_argument(
        "--checkpoint-policy", choices=["fixed", "adaptive"], default=None,
        help="checkpoint strategy (default: the paper's fixed policy)")
    policy_flags.add_argument(
        "--checkpoint-count", type=int, default=None, metavar="N",
        help="backup-peer ring size (default 20, the paper's value)")
    policy_flags.add_argument(
        "--checkpoint-frequency", type=int, default=None, metavar="K",
        help="checkpoint every K iterations (fixed; adaptive prior)")
    policy_flags.add_argument(
        "--max-replicas", type=int, default=None, metavar="R",
        help="adaptive only: max checkpoint copies per save (default 3)")
    policy_flags.add_argument(
        "--max-frequency", type=int, default=None, metavar="K",
        help="adaptive only: interval ceiling in iterations (default 40)")

    run = sub.add_parser("run", parents=[exec_flags, policy_flags],
                         help="one Poisson execution on the P2P runtime")
    run.add_argument("--n", type=int, default=48, help="grid size (system is n^2)")
    run.add_argument("--peers", type=int, default=8)
    run.add_argument("--disconnections", type=int, default=0)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--overlap", type=int, default=None)
    run.add_argument("--warm-start", action="store_true")
    run.add_argument("--csv", metavar="PATH", default=None,
                     help="also write the run as a CSV row")

    fig7 = sub.add_parser("figure7", parents=[exec_flags, policy_flags],
                          help="the paper's Figure 7 sweep")
    fig7.add_argument("--quick", action="store_true",
                      help="2 sizes x 3 churn levels instead of 4 x 4")
    fig7.add_argument("--repeats", type=int, default=1)
    fig7.add_argument("--seed", type=int, default=0)
    fig7.add_argument("--csv", metavar="PATH", default=None,
                      help="also write the aggregated grid as CSV")

    iters = sub.add_parser("iterations", parents=[exec_flags, policy_flags],
                           help="claims C1/C3: iteration counts vs n")
    iters.add_argument("--csv", metavar="PATH", default=None)

    timeline = sub.add_parser(
        "timeline", help="narrated churn run: event narrative + activity chart"
    )
    timeline.add_argument("--n", type=int, default=64)
    timeline.add_argument("--peers", type=int, default=6)
    timeline.add_argument("--disconnections", type=int, default=3)
    timeline.add_argument("--seed", type=int, default=13)

    sa = sub.add_parser("syncasync", parents=[exec_flags, policy_flags],
                        help="claim C4: sync vs async under churn")
    sa.add_argument("--n", type=int, default=48)
    sa.add_argument("--disconnections", type=int, default=3)
    sa.add_argument("--seed", type=int, default=0)

    ab = sub.add_parser("ablation", parents=[exec_flags],
                        help="design-choice ablations A1-A4")
    ab.add_argument("which", choices=["checkpoint", "backup", "overlap",
                                      "bootstrap"])

    from repro.faults import scenario_names

    faults = sub.add_parser(
        "faults", help="scenario-driven fault-plane runs (repro.faults)"
    )
    fsub = faults.add_subparsers(dest="faults_command", required=True)
    fsub.add_parser("list", help="catalogue of named fault scenarios")
    frun = fsub.add_parser(
        "run", parents=[exec_flags, policy_flags],
        help="run one scenario end-to-end and report what happened")
    frun.add_argument("scenario", nargs="?", default="perfect-storm",
                      choices=scenario_names(),
                      help="named scenario (default: perfect-storm)")
    frun.add_argument("--n", type=int, default=48, help="grid size (system is n^2)")
    frun.add_argument("--peers", type=int, default=6)
    frun.add_argument("--seed", type=int, default=0)
    frun.add_argument("--quick", action="store_true",
                      help="small problem (n=32, peers=4) for smoke tests")
    frun.add_argument("--report", action="store_true",
                      help="trace the run and render its run report")

    cache = sub.add_parser("cache", help="inspect or clear the run cache")
    cache.add_argument("action", choices=["stats", "clear"])
    cache.add_argument("--cache-dir", metavar="DIR", default=None,
                       help=f"cache directory (default {default_cache_dir()})")

    trace = sub.add_parser(
        "trace", help="one traced run: dump the structured event stream"
    )
    trace.add_argument("--n", type=int, default=48)
    trace.add_argument("--peers", type=int, default=6)
    trace.add_argument("--disconnections", type=int, default=3)
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--out", metavar="PATH", default=None,
                       help="write the trace as JSON Lines")
    trace.add_argument("--chrome", metavar="PATH", default=None,
                       help="write a Chrome trace_event JSON "
                            "(chrome://tracing, Perfetto)")

    report = sub.add_parser(
        "report", help="one traced run: render the run report"
    )
    report.add_argument("--n", type=int, default=48)
    report.add_argument("--peers", type=int, default=6)
    report.add_argument("--disconnections", type=int, default=3)
    report.add_argument("--seed", type=int, default=7)
    report.add_argument("--markdown", action="store_true",
                        help="emit markdown instead of plain text")

    profile = sub.add_parser(
        "profile",
        help="profile one run under cProfile: per-layer time attribution",
    )
    profile.add_argument("--n", type=int, default=48)
    profile.add_argument("--peers", type=int, default=6)
    profile.add_argument("--disconnections", type=int, default=0)
    profile.add_argument("--seed", type=int, default=7)
    profile.add_argument("--top", type=int, default=10, metavar="N",
                         help="functions to list by cumulative time")
    profile.add_argument("--json", metavar="PATH", default=None,
                         help="also write the report as JSON")
    return parser


def _policy_from(args):
    """Build a CheckpointPolicy from the shared --checkpoint-* flags; with
    none given, the paper's ``FixedPolicy()``."""
    from repro.checkpoint import AdaptivePolicy, FixedPolicy

    tuning = {
        k: v for k, v in (
            ("count", args.checkpoint_count),
            ("frequency", args.checkpoint_frequency),
        ) if v is not None
    }
    if args.checkpoint_policy == "adaptive":
        if args.max_replicas is not None:
            tuning["max_replicas"] = args.max_replicas
        if args.max_frequency is not None:
            tuning["max_frequency"] = args.max_frequency
        return AdaptivePolicy(**tuning)
    return FixedPolicy(**tuning)


def _engine_from(args) -> SweepEngine:
    """A SweepEngine configured by the shared --workers/--cache-dir flags."""
    cache = None if args.no_cache else RunCache(args.cache_dir)
    return SweepEngine(workers=args.workers, cache=cache)


def _cmd_run(args) -> int:
    result = _engine_from(args).run(RunSpec(
        n=args.n, peers=args.peers, disconnections=args.disconnections,
        seed=args.seed, overlap=args.overlap, warm_start=args.warm_start,
        checkpoint=_policy_from(args),
    ))
    row = result.row()
    print(format_table(list(row), [list(row.values())],
                       title="single run (simulated seconds)"))
    if args.csv:
        from repro.experiments.export import runs_to_csv, write_csv

        write_csv(runs_to_csv([result]), args.csv)
        print(f"wrote {args.csv}")
    if not result.converged:
        print("WARNING: did not converge within the horizon", file=sys.stderr)
        return 1
    return 0


def _cmd_figure7(args) -> int:
    engine = _engine_from(args)
    checkpoint = _policy_from(args)
    if args.quick:
        result = figure7_sweep(ns=(40, 64), disconnections=(0, 2, 4),
                               repeats=args.repeats, base_seed=args.seed,
                               engine=engine, checkpoint=checkpoint)
    else:
        result = figure7_sweep(repeats=args.repeats, base_seed=args.seed,
                               engine=engine, checkpoint=checkpoint)
    print(result.format_table())
    from repro.experiments.plotting import figure7_chart

    print()
    print(figure7_chart(result))
    if args.csv:
        from repro.experiments.export import figure7_to_csv, write_csv

        write_csv(figure7_to_csv(result), args.csv)
        print(f"wrote {args.csv}")
    return 0


def _cmd_iterations(args) -> int:
    result = iterations_vs_n(engine=_engine_from(args),
                             checkpoint=_policy_from(args))
    print(result.format_table())
    if args.csv:
        from repro.experiments.export import ratio_to_csv, write_csv

        write_csv(ratio_to_csv(result), args.csv)
        print(f"wrote {args.csv}")
    return 0


def _cmd_timeline(args) -> int:
    from repro.experiments.timeline import (
        activity_chart,
        event_timeline,
        run_summary,
    )
    from repro.obs import Tracer

    tracer = Tracer()
    result = RunSpec(
        n=args.n, peers=args.peers, disconnections=args.disconnections,
        seed=args.seed, n_daemons=2 * args.peers, churn_window=1.5,
        reconnect_delay=1.0, collect=False,
    ).run(tracer=tracer)
    print(event_timeline(tracer))
    print()
    print(activity_chart(tracer, width=70))
    print()
    for key, value in run_summary(tracer).items():
        print(f"{key:>18}: {value}")
    return 0 if result.converged else 1


def _cmd_syncasync(args) -> int:
    result = sync_vs_async(n=args.n, disconnections=args.disconnections,
                           seed=args.seed, engine=_engine_from(args),
                           checkpoint=_policy_from(args))
    print(result.format_table())
    return 0


def _traced_run(args):
    from repro.obs import Tracer

    tracer = Tracer()
    result = RunSpec(
        n=args.n, peers=args.peers, disconnections=args.disconnections,
        seed=args.seed,
    ).run(tracer=tracer)
    return tracer, result


def _cmd_trace(args) -> int:
    from repro.obs import write_chrome_trace, write_jsonl

    tracer, result = _traced_run(args)
    if args.out:
        n_events = write_jsonl(tracer, args.out)
        print(f"wrote {n_events} events to {args.out}")
    if args.chrome:
        n_events = write_chrome_trace(tracer, args.chrome)
        print(f"wrote {n_events} events to {args.chrome} (chrome://tracing)")
    if not args.out and not args.chrome:
        try:
            for ev in tracer:
                print(ev.as_dict())
        except BrokenPipeError:  # `repro-cli trace | head` is normal usage
            sys.stderr.close()  # suppress the interpreter's pipe warning
            return 0
    by_category: dict[str, int] = {}
    for (category, _kind), count in sorted(tracer.counts.items()):
        by_category[category] = by_category.get(category, 0) + count
    summary = ", ".join(f"{cat}={n}" for cat, n in sorted(by_category.items()))
    print(f"{len(tracer)} events ({summary})", file=sys.stderr)
    if not result.converged:
        print("WARNING: did not converge within the horizon", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args) -> int:
    _, result = _traced_run(args)
    report = result.run_report
    print(report.to_markdown() if args.markdown else report.to_text())
    return 0 if result.converged else 1


def _cmd_profile(args) -> int:
    import json

    from repro.obs.profile import profile_callable

    report, result = profile_callable(
        RunSpec(
            n=args.n, peers=args.peers, disconnections=args.disconnections,
            seed=args.seed,
        ).run,
        top_n=args.top,
    )
    print(report.to_text())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.as_dict(), fh, indent=2)
        print(f"wrote {args.json}", file=sys.stderr)
    if not result.converged:
        print("WARNING: did not converge within the horizon", file=sys.stderr)
        return 1
    return 0


def _cmd_ablation(args) -> int:
    maker = {
        "checkpoint": checkpoint_frequency_ablation,
        "backup": backup_count_ablation,
        "overlap": overlap_ablation,
        "bootstrap": bootstrap_scaling,
    }[args.which]
    # A3/A4 are not RunSpec sweeps; only A1/A2 take an engine
    if args.which in ("checkpoint", "backup"):
        table = maker(engine=_engine_from(args))
    else:
        table = maker()
    print(table.format_table())
    return 0


def _cmd_faults(args) -> int:
    from repro.faults import SCENARIOS, scenario, scenario_overrides

    if args.faults_command == "list":
        width = max(len(name) for name in SCENARIOS)
        for name in sorted(SCENARIOS):
            description, plan = SCENARIOS[name]
            kinds = ", ".join(sorted({a.kind for a in plan.actions}))
            print(f"{name:>{width}}: {description}")
            print(f"{'':>{width}}  [{len(plan)} action(s): {kinds}]")
            requires = scenario_overrides(name)
            if requires:
                needs = ", ".join(f"{k}={v}" for k, v in sorted(
                    requires.items()))
                print(f"{'':>{width}}  [requires: {needs}]")
        return 0

    n, peers = (32, 4) if args.quick else (args.n, args.peers)
    spec = RunSpec(n=n, peers=peers, seed=args.seed,
                   faults=scenario(args.scenario), traced=args.report,
                   checkpoint=_policy_from(args),
                   **scenario_overrides(args.scenario))
    result = _engine_from(args).run(spec)
    row = result.row()
    row["faults"] = result.faults_executed
    row["corrupted"] = result.messages_corrupted
    if result.takeovers:
        row["takeover@"] = round(result.takeover_at, 4)
    print(format_table(list(row), [list(row.values())],
                       title=f"fault scenario {args.scenario!r}"))
    if args.report and result.run_report is not None:
        print()
        print(result.run_report.to_text())
    if not result.converged:
        print("WARNING: did not converge within the horizon", file=sys.stderr)
        return 1
    return 0


def _cmd_cache(args) -> int:
    cache = RunCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached run(s) from {cache.root}")
        return 0
    stats = cache.stats()
    width = max(len(k) for k in stats)
    for key, value in stats.items():
        print(f"{key:>{width}}: {value}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "figure7": _cmd_figure7,
        "iterations": _cmd_iterations,
        "syncasync": _cmd_syncasync,
        "ablation": _cmd_ablation,
        "timeline": _cmd_timeline,
        "trace": _cmd_trace,
        "report": _cmd_report,
        "profile": _cmd_profile,
        "faults": _cmd_faults,
        "cache": _cmd_cache,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main
    raise SystemExit(main())
