"""Named fault scenarios: curated plans for the CLI and smoke tests.

Each scenario is a ready-made :class:`~repro.faults.plan.FaultPlan` whose
action times fit the quick experiment sizes (a ``n=32 / peers=4`` run
converges around ``t≈0.4`` simulated seconds under the default
:data:`~repro.experiments.config.EXPERIMENT_CONFIG`), so every scenario
actually *fires* before convergence.  ``repro-cli faults list`` prints this
catalogue; ``repro-cli faults run <name>`` executes one end-to-end.

Scenarios are data (frozen plans), so they are content-addressable: a named
scenario inside a :class:`~repro.exec.spec.RunSpec` caches and replays like
any other spec field.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.faults.actions import (
    DaemonCrash,
    MessageCorruption,
    PartitionAction,
    RackFailure,
    SpawnerCrash,
    SuperPeerCrash,
)
from repro.faults.plan import FaultPlan

__all__ = [
    "SCENARIOS",
    "SCENARIO_REQUIRES",
    "scenario",
    "scenario_names",
    "scenario_overrides",
]


#: name -> (description, plan).  Descriptions cite the paper section each
#: scenario stresses.
SCENARIOS: dict[str, tuple[str, FaultPlan]] = {
    "churn-burst": (
        "three computing peers crash in quick succession and reconnect "
        "(§7 disconnection protocol)",
        FaultPlan.of(
            DaemonCrash(time=0.05, downtime=0.10),
            DaemonCrash(time=0.08, downtime=0.10),
            DaemonCrash(time=0.11, downtime=0.10),
            name="churn-burst",
        ),
    ),
    "superpeer-outage": (
        "one Super-Peer dies and reboots; idle Daemons re-register with a "
        "survivor (§5.3)",
        FaultPlan.of(
            SuperPeerCrash(time=0.05, downtime=0.15),
            name="superpeer-outage",
        ),
    ),
    "split-brain": (
        "two computing peers are partitioned away and healed; asynchronous "
        "iteration rides through the message loss (§5.3)",
        FaultPlan.of(
            PartitionAction(
                time=0.10,
                groups=(("daemon-host-0", "daemon-host-1"),),
                duration=0.08,
            ),
            name="split-brain",
        ),
    ),
    "dirty-channel": (
        "a window of silent data corruption on the asynchronous boundary "
        "exchange (loss-tolerance claim of §5.3, corruption variant)",
        FaultPlan.of(
            MessageCorruption(time=0.02, duration=0.25, rate=0.05, magnitude=1e3),
            name="dirty-channel",
        ),
    ),
    "rack-down": (
        "a victim peer and the guardians of its checkpoints fail together; "
        "recovery restarts from scratch (§5.4 worst case)",
        FaultPlan.of(
            RackFailure(time=0.12, downtime=0.20),
            name="rack-down",
        ),
    ),
    "perfect-storm": (
        "Super-Peer crash + two-group partition/heal + corruption window in "
        "one run: the acceptance scenario for the fault plane",
        FaultPlan.of(
            SuperPeerCrash(time=0.05, downtime=0.15),
            PartitionAction(
                time=0.10,
                groups=(("daemon-host-0", "daemon-host-1"),),
                duration=0.08,
            ),
            MessageCorruption(time=0.02, duration=0.25, rate=0.10, magnitude=1e3),
            name="perfect-storm",
        ),
    ),
    "spawner-down": (
        "the Spawner machine dies for good mid-run; the warm standby "
        "detects the leadership-beat silence, promotes under a fenced "
        "reign and the run converges without restarting (docs/gossip.md)",
        FaultPlan.of(
            SpawnerCrash(time=0.08),
            name="spawner-down",
        ),
    ),
    "discovery-storm": (
        "both seed Super-Peers die while computing peers churn: rebooting "
        "Daemons must discover surviving entry points over gossip (no "
        "hardcoded roster) and re-register with exponential backoff",
        FaultPlan.of(
            SuperPeerCrash(time=0.05, sp_id="SP0", downtime=0.20),
            SuperPeerCrash(time=0.07, sp_id="SP1", downtime=0.20),
            DaemonCrash(time=0.10, downtime=0.10),
            DaemonCrash(time=0.12, downtime=0.10),
            name="discovery-storm",
        ),
    ),
    "poisoned-channel": (
        "whole-run silent data corruption: without the contraction-bound "
        "rejection filter the solver chases poisoned components and stalls "
        "or converges wrong; with it on, the run converges correctly "
        "(arXiv:2206.08479)",
        FaultPlan.of(
            MessageCorruption(time=0.02, duration=30.0, rate=0.05,
                              magnitude=1e3),
            name="poisoned-channel",
        ),
    ),
}

#: RunSpec fields a scenario needs switched on to be meaningful; the CLI's
#: ``faults run`` applies these automatically (``spawner-down`` without a
#: standby would simply never converge).
SCENARIO_REQUIRES: dict[str, dict[str, bool]] = {
    "spawner-down": dict(gossip=True, standby=True),
    "discovery-storm": dict(gossip=True),
    "poisoned-channel": dict(reject_corruption=True),
}


def scenario(name: str) -> FaultPlan:
    """Look up a named scenario plan."""
    try:
        return SCENARIOS[name][1]
    except KeyError:
        raise ConfigurationError(
            f"unknown fault scenario {name!r}; known: {', '.join(scenario_names())}"
        ) from None


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)


def scenario_overrides(name: str) -> dict[str, bool]:
    """RunSpec field overrides a named scenario depends on."""
    return dict(SCENARIO_REQUIRES.get(name, {}))
