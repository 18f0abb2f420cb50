"""Every metric the ledger reports: name, unit, direction, regression bound.

``BENCHMARK.json`` at the root of the repo repeats the gated end-to-end rows
and every per-layer row; ``run.py --selfcheck`` fails when the two disagree.
"""

from __future__ import annotations

import dataclasses

from ledger.layers import LAYERS


@dataclasses.dataclass(frozen=True)
class EndToEnd:
    unit: str
    better: str
    #: share of the baseline median by which the metric may get worse
    bound: float
    #: listed in BENCHMARK.json.  ``wall_s`` and ``sim_s`` are not: they
    #: follow the seed's inputs (which peers churn, when), so across seeds
    #: they spread by more than any useful bound; between two runs of one
    #: seed ``compare.py`` holds them to theirs.
    gated: bool


END_TO_END = {
    # host seconds of the timed region, GC at interpreter defaults
    "wall_s": EndToEnd("s", "lower", 0.10, False),
    # wall_s over the simulated steps of the timed region: the unit of work
    # that tracks host cost on the workload (workloads.py names it)
    "wall_us_per_step": EndToEnd("us", "lower", 0.25, True),
    # first line of the worker process to the start of the timed region
    "setup_s": EndToEnd("s", "lower", 0.25, True),
    # ru_maxrss of the worker process at exit
    "peak_rss_mb": EndToEnd("MB", "lower", 0.05, True),
    # simulated seconds launch to declared convergence, summed over the
    # workload's runs (the window on swarm workloads); exact for a seed
    "sim_s": EndToEnd("s", "lower", 0.02, False),
}

#: per-layer counters read from public surfaces after an untraced run
#: (exact for a seed), and the derived ratios
COUNT_UNITS = {
    "des.events": "count",
    "des.us_per_event": "us",
    "des.batched_calls": "count",
    "des.wheel_timers_fired": "count",
    "net.sent": "count",
    "net.delivered": "count",
    "net.dropped": "count",
    "net.bytes_sent": "B",
    "rmi.calls_sent": "count",
    "rmi.oneways_sent": "count",
    "rmi.oneway_errors": "count",
    "p2p.iterations": "count",
    "p2p.useless_fraction": "ratio",
    "p2p.data_messages": "count",
    "p2p.recoveries": "count",
    "p2p.restarts_from_zero": "count",
    "p2p.replacements": "count",
    "p2p.registered": "count",
    "checkpoint.saves": "count",
    "checkpoint.bytes": "B",
    "checkpoint.wasted_iterations": "count",
    "churn.disconnections_executed": "count",
    "compute.cohorts": "count",
    "compute.flushes": "count",
    "compute.deferred": "count",
    "compute.memo_hits": "count",
    "compute.batched_columns": "count",
    "compute.loop_columns": "count",
    "numerics.residual": "norm",
    "gossip.pushes_sent": "count",
    "gossip.pushes_received": "count",
    "gossip.hellos_received": "count",
    "gossip.rumors_merged": "count",
    "exec.runs_executed": "count",
    "exec.memo_hits": "count",
    "experiments.churn_slowdown": "ratio",
    "experiments.sim_s": "s",
    "obs.trace_overhead": "ratio",
}

#: every per-layer metric with its unit; the traced run gives the first block
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "ext.unattributed_s": "s",
    **COUNT_UNITS,
}

#: lower is better for these per-layer metrics, higher for the rest that
#: have a direction at all (BENCHMARK.json wants one for each)
HIGHER_IS_BETTER = {
    "net.delivered", "p2p.registered", "compute.memo_hits",
    "compute.batched_columns", "exec.memo_hits",
}
