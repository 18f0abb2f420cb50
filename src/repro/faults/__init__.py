"""The fault plane: scenario-driven failures for JaceP2P experiments.

This package turns "what can go wrong" into data: a
:class:`~repro.faults.plan.FaultPlan` is a frozen, seeded, JSON-round-trip
schedule of typed :class:`~repro.faults.actions.FaultAction`\\ s — daemon
crashes (the historical churn axis), Super-Peer outages with Daemon
re-registration, network partitions, in-transit corruption of asynchronous
data payloads and correlated rack failures.  The
:class:`~repro.faults.injector.FaultInjector` executes a plan as a
simulation process, records what it did for replay (``executed``, with ``skipped`` and
``corrupted`` counts), and emits ``faults`` trace events.

Plans ride inside :class:`~repro.exec.spec.RunSpec` (the ``faults`` field),
so fault scenarios flow through the parallel sweep engine and the run cache
like any other experiment parameter, and through ``repro-cli faults``.
"""

from repro.faults.actions import (
    DaemonCrash,
    FaultAction,
    HealAction,
    MessageCorruption,
    PartitionAction,
    RackFailure,
    SpawnerCrash,
    SuperPeerCrash,
    action_from_dict,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRecord
from repro.faults.scenarios import (
    SCENARIO_REQUIRES,
    SCENARIOS,
    scenario,
    scenario_names,
    scenario_overrides,
)

__all__ = [
    "FaultAction",
    "DaemonCrash",
    "SuperPeerCrash",
    "PartitionAction",
    "HealAction",
    "MessageCorruption",
    "RackFailure",
    "SpawnerCrash",
    "action_from_dict",
    "FaultPlan",
    "FaultRecord",
    "FaultInjector",
    "SCENARIOS",
    "SCENARIO_REQUIRES",
    "scenario",
    "scenario_names",
    "scenario_overrides",
]
