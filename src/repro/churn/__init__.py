"""``repro.churn`` — dynamicity models (paper §7's disconnection protocol).

The paper's experiment: "The peers are randomly disconnected during the
execution, and they are reconnected about 20 seconds later", with 0–50
disconnections per run.  :class:`PaperChurn` reproduces exactly that;
:class:`PoissonChurn` provides an open-ended arrival-process alternative;
:class:`TraceChurn` replays a recorded schedule so baselines face the
*identical* failure pattern.  :func:`churn_plan` turns any model's schedule
into a :class:`~repro.faults.FaultPlan` for a
:class:`~repro.faults.FaultInjector` to execute.
"""

from repro.churn.models import (
    ChurnEvent,
    ChurnModel,
    PaperChurn,
    PoissonChurn,
    TraceChurn,
    churn_plan,
)

__all__ = [
    "ChurnEvent",
    "ChurnModel",
    "PaperChurn",
    "PoissonChurn",
    "TraceChurn",
    "churn_plan",
]
