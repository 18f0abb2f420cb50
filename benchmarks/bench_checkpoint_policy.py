"""Adaptive-vs-fixed checkpointing sweep over the fault-scenario catalogue.

Every named scenario runs twice on the quick experiment size (``n=32``,
4 peers, seed 0): once under the paper's :class:`~repro.checkpoint.
FixedPolicy` defaults and once under :class:`~repro.checkpoint.
AdaptivePolicy`.  The cost model is *wasted work*, expressed in simulated
seconds so iterations and bytes share a unit:

    ``wasted_seconds = wasted_iterations · tau + checkpoint_bytes / B``

where ``tau`` is the fixed arm's mean per-task iteration time for that
scenario (both arms priced at the same work rate) and ``B`` is the link
bandwidth the adaptive policy prices checkpoints at (``LINK_BANDWIDTH``).  ``wasted_iterations`` is the
telemetry frontier deficit: iterations executed but re-executed after a
rollback or restart-from-zero.

The headline metric is the aggregate reduction over the churn scenarios
(the ones whose faults actually destroy compute state), which must reach
``MIN_REDUCTION``:

    ``wasted_work_reduction = 1 - sum(adaptive) / sum(fixed)``

Everything here is simulated-time accounting, so the measurement is
deterministic and machine-independent.
"""

from __future__ import annotations

import pytest

from repro.checkpoint import AdaptivePolicy
from repro.checkpoint.policy import LINK_BANDWIDTH
from repro.exec import RunSpec
from repro.faults import scenario
from repro.faults.scenarios import scenario_names, scenario_overrides

#: scenarios whose faults roll tasks back / restart them from scratch —
#: where checkpoint strategy moves the wasted-work needle
CHURN_SCENARIOS = ("churn-burst", "rack-down", "discovery-storm")

ADAPTIVE = AdaptivePolicy()
MIN_REDUCTION = 0.31


def _run(name: str, policy):
    spec = RunSpec(
        n=32, peers=4, seed=0, faults=scenario(name), checkpoint=policy,
        collect=False, **scenario_overrides(name),
    )
    return spec.run()


def _cost(result, tau: float) -> float:
    return (result.wasted_iterations * tau
            + result.checkpoint_bytes / LINK_BANDWIDTH)


@pytest.mark.checkpoint_bench
def test_adaptive_policy_cuts_wasted_work(record_table):
    rows = []
    fixed_total = adaptive_total = 0.0
    for name in scenario_names():
        fixed = _run(name, None)
        adaptive = _run(name, ADAPTIVE)
        assert fixed.converged, f"{name}: fixed arm did not converge"
        assert adaptive.converged, f"{name}: adaptive arm did not converge"
        tau = (fixed.simulated_time * 4 / fixed.total_iterations
               if fixed.total_iterations else 0.0)
        fc, ac = _cost(fixed, tau), _cost(adaptive, tau)
        if name in CHURN_SCENARIOS:
            fixed_total += fc
            adaptive_total += ac
        rows.append(
            f"{name:18s} fixed={fc:8.4f}s adaptive={ac:8.4f}s "
            f"(bytes {fixed.checkpoint_bytes:>8d} -> "
            f"{adaptive.checkpoint_bytes:>8d})"
        )

    assert fixed_total > 0.0
    reduction = 1.0 - adaptive_total / fixed_total
    record_table(
        "checkpoint_policy",
        "adaptive vs fixed wasted work per scenario\n" + "\n".join(rows)
        + f"\nchurn aggregate: fixed={fixed_total:.4f}s "
          f"adaptive={adaptive_total:.4f}s reduction={reduction:.3f}",
    )
    assert reduction >= MIN_REDUCTION, f"wasted-work reduction {reduction:.3f}"
