"""``repro.baselines`` — the execution models the paper argues against.

* :class:`SynchronousEngine` — BSP/synchronous iterations on the same
  simulated testbed: every superstep barriers on the slowest peer, and any
  disconnection stalls *everyone* until the machine returns, followed by a
  global rollback to the last coordinated checkpoint (§1: "all the nodes
  involved in the computation of an application would stop computing when a
  single disconnection occurs").
* :func:`build_centralized_cluster` — the JaceV-style centralized topology
  (§4.1/§2.2): registry and Spawner on one machine, a single point of
  failure and a message bottleneck the hybrid topology was built to avoid.
"""

from repro.baselines.sync_engine import SynchronousEngine, SyncResult
from repro.baselines.jacev import build_centralized_cluster

__all__ = [
    "SynchronousEngine",
    "SyncResult",
    "build_centralized_cluster",
]
