"""``repro.p2p`` — the JaceP2P runtime (paper §4–§5).

Entities (each a JVM in the paper, an :class:`~repro.rmi.RmiRuntime`-backed
object on a simulated host here):

* :class:`~repro.p2p.daemon.Daemon` — the computing peer: bootstraps into
  the Super-Peer network, heartbeats, runs one Task at a time, stores
  Backups for its neighbours, exchanges asynchronous data messages;
* :class:`~repro.p2p.superpeer.SuperPeer` — indexes idle Daemons
  (the Register), evicts silent ones, answers reservation requests and
  forwards unmet demand to neighbouring Super-Peers;
* :class:`~repro.p2p.spawner.Spawner` — launches an application on reserved
  Daemons, maintains the Application Register, detects computing-peer
  failures, reserves replacements, broadcasts register updates, and
  centralizes global convergence detection.

:func:`~repro.p2p.cluster.build_cluster` wires a whole testbed together;
:func:`~repro.p2p.cluster.launch_application` starts an app and returns the
Spawner whose ``done`` event the driver runs the simulation against.
"""

from repro.p2p.config import P2PConfig
from repro.p2p.messages import ApplicationRegister, TaskSlot, AppSpec
from repro.p2p.task import Task, TaskContext, IterationStep
from repro.p2p.superpeer import SuperPeer
from repro.p2p.daemon import Daemon
from repro.p2p.spawner import Spawner
from repro.p2p.cluster import (
    Cluster,
    build_cluster,
    launch_application,
    launch_standby,
)
from repro.p2p.standby import StandbySpawner

__all__ = [
    "StandbySpawner",
    "launch_standby",
    "P2PConfig",
    "ApplicationRegister",
    "TaskSlot",
    "AppSpec",
    "Task",
    "TaskContext",
    "IterationStep",
    "SuperPeer",
    "Daemon",
    "Spawner",
    "Cluster",
    "build_cluster",
    "launch_application",
]
