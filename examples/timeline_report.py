#!/usr/bin/env python
"""Timeline reporting: watch a stormy run as a narrative and a strip chart.

Runs the Poisson application under heavy churn, then renders the run three
ways from its trace: the chronological protocol narrative, an ASCII
activity chart (one row per machine), and the headline counters.

Run:  python examples/timeline_report.py
"""

from repro.exec import RunSpec
from repro.experiments.timeline import activity_chart, event_timeline, run_summary
from repro.obs import Tracer


def main() -> None:
    tracer = Tracer()
    result = RunSpec(
        n=64, peers=6, seed=13, n_daemons=12, disconnections=4,
        churn_window=1.2, reconnect_delay=1.0, collect=False,
    ).run(tracer=tracer)

    print("== narrative ==")
    print(event_timeline(tracer))
    print("\n== activity chart ==")
    print(activity_chart(tracer, width=70))
    print("\n== summary ==")
    for key, value in run_summary(tracer).items():
        print(f"  {key:>18}: {value}")
    if result.simulated_time is not None:
        print(f"  {'execution time':>18}: {result.simulated_time:.3f}s")


if __name__ == "__main__":
    main()
