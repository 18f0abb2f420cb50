"""The JaceV-style centralized deployment (paper §4.1, §2.2).

JaceP2P is "the P2P and decentralized version of JaceV", which was "a fully
centralized volatility tolerant platform".  In the centralized topology
(§2.2) one stable server indexes every peer — simple, but "centralization
may generate bottlenecks and can present some scalability limits", and it
is a single point of failure.

This module wires the *same* runtime entities into that topology: one
machine hosts both the only registry (a single Super-Peer) and the Spawner.
Two consequences the tests/benchmarks quantify against the hybrid topology:

* every Daemon's heartbeat and every reservation hits the one server
  (bottleneck: its message load grows linearly with the population, where
  the hybrid topology spreads it over the Super-Peers);
* if the central machine dies, the whole platform dies: Daemons have no
  other entry point to re-register with, and the application's register
  and convergence array are gone — where JaceP2P tolerates the loss of any
  Super-Peer (§5.3) and of any Daemon (§5.4).
"""

from __future__ import annotations

from repro.des import Simulator
from repro.net.topology import build_testbed
from repro.p2p.cluster import Cluster
from repro.p2p.config import P2PConfig
from repro.p2p.superpeer import SuperPeer
from repro.util.rng import RngTree

__all__ = ["build_centralized_cluster"]


def build_centralized_cluster(
    n_daemons: int,
    seed: int = 0,
    config: P2PConfig | None = None,
    link_scale: float = 1.0,
) -> Cluster:
    """Build a JaceV-style deployment: registry + Spawner on ONE machine.

    Returns the same :class:`~repro.p2p.cluster.Cluster` handle as
    :func:`~repro.p2p.cluster.build_cluster`, so
    :func:`~repro.p2p.cluster.launch_application` and the churn machinery
    work unchanged — only the topology differs.  The testbed's Super-Peer
    host allocation is skipped; the central server lives on the spawner
    host, so failing that single host takes down registry and application
    management together.
    """
    config = config or P2PConfig()
    rng = RngTree(seed)
    sim = Simulator()
    testbed = build_testbed(
        sim,
        n_daemons=n_daemons,
        n_superpeers=1,  # allocated but unused: the registry is colocated
        rng=rng.child("testbed"),
        link_scale=link_scale,
    )
    cluster = Cluster(sim=sim, testbed=testbed, config=config, rng=rng)

    central_host = testbed.spawner_host
    server = SuperPeer(
        testbed.network, central_host, sp_id="CENTRAL", config=config
    )
    server.link([])  # nobody to forward to
    cluster.superpeers.append(server)

    reboot = cluster.boot_daemon
    for host in testbed.daemon_hosts:
        reboot(host)
        host.on_recover(reboot)

    return cluster
