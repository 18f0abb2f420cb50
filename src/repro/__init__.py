"""repro — a from-scratch reproduction of **JaceP2P** (Bahi, Couturier,
Vuillemin; IEEE CLUSTER 2006): an environment for *asynchronous iterative
computations on peer-to-peer networks*.

The package layers, bottom-up:

* :mod:`repro.des` — deterministic discrete-event simulation kernel.
* :mod:`repro.net` — simulated hosts, links and transport (the substitute
  for the paper's ~100 heterogeneous PCs on mixed Ethernet).
* :mod:`repro.rmi` — Java-RMI-style remote invocation over the transport.
* :mod:`repro.p2p` — the JaceP2P runtime: Daemons, Super-Peers, Spawner,
  bootstrap, heartbeats, reservation, Task lifecycle.
* :mod:`repro.checkpoint` — Backup objects and rollback recovery.
* :mod:`repro.convergence` — local/global convergence detection.
* :mod:`repro.churn` — disconnection/reconnection models.
* :mod:`repro.numerics` — sparse Poisson assembly, block-Jacobi
  multisplitting with overlap, conjugate gradient, async-iteration theory.
* :mod:`repro.apps` — SPMD Task implementations (PoissonTask et al.).
* :mod:`repro.local` — a *real* threaded asynchronous-iteration backend.
* :mod:`repro.baselines` — the synchronous (BSP) engine and the JaceV-style
  centralized topology.
* :mod:`repro.experiments` — the harness that regenerates the paper's
  figure and claims.
* :mod:`repro.obs` — cross-cutting observability: the structured trace
  bus every layer emits into, the plain-int ``RunTelemetry`` record of a
  run's counts, and the JSONL / Chrome-trace / run-report exporters.

Quickstart::

    from repro.exec import RunSpec
    result = RunSpec(n=40, peers=4, disconnections=2, seed=1).run()
    print(result.simulated_time, result.residual)
"""

from repro.version import __version__

__all__ = ["__version__"]
