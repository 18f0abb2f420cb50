"""Cluster assembly: wire a whole JaceP2P deployment onto a simulated testbed.

:func:`build_cluster` creates the Super-Peers (linked together), boots one
Daemon per daemon host, and installs the *reboot hook*: whenever a failed
host reconnects, a fresh Daemon incarnation boots and re-registers — the
paper's disconnection/reconnection cycle.  :func:`launch_application` starts
a Spawner for an :class:`~repro.p2p.messages.AppSpec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.checkpoint import FixedPolicy
from repro.compute import ComputePlane
from repro.errors import ConfigurationError, FaultError
from repro.des import Simulator, TimerWheel, collector
from repro.gossip import GossipAgent
from repro.net.address import Address
from repro.net.host import Host
from repro.net.topology import Testbed, build_testbed
from repro.p2p.config import P2PConfig
from repro.p2p.daemon import Daemon
from repro.p2p.messages import AppSpec
from repro.p2p.spawner import Spawner
from repro.p2p.standby import StandbySpawner
from repro.p2p.superpeer import SuperPeer
from repro.obs.instruments import RunTelemetry
from repro.util.rng import RngTree

__all__ = [
    "Cluster",
    "build_cluster",
    "launch_application",
    "launch_standby",
    "tier_sizes",
]


def tier_sizes(n_leaves: int, tiers: int, fanout: int) -> list[int]:
    """Super-Peers per tier, leaves (tier 0) first.

    Each tier above the leaves holds ``ceil(previous / fanout)`` interior
    Super-Peers; the plan stops early once a tier collapses to one node
    (a deeper hierarchy over a single root adds hops, not capacity)."""
    sizes = [n_leaves]
    for _ in range(1, tiers):
        if sizes[-1] <= 1:
            break
        sizes.append(math.ceil(sizes[-1] / fanout))
    return sizes


@dataclass
class Cluster:
    """Handle to a running deployment."""

    sim: Simulator
    testbed: Testbed
    config: P2PConfig
    rng: RngTree
    superpeers: list[SuperPeer] = field(default_factory=list)
    #: current Daemon incarnation per daemon host name
    daemons: dict[str, Daemon] = field(default_factory=dict)
    spawners: list[Spawner] = field(default_factory=list)
    telemetry: RunTelemetry = field(default_factory=RunTelemetry)
    incarnations: dict[str, int] = field(default_factory=dict)
    #: the shared heartbeat wheel every Daemon incarnation beats on
    wheel: TimerWheel = field(init=False)
    #: hierarchy plan (empty in the flat depth-1 topology): child -> parent
    sp_parent: dict[str, str] = field(default_factory=dict)
    #: hierarchy plan: parent -> children
    sp_children: dict[str, list[str]] = field(default_factory=dict)
    #: cluster-wide compute plane (wall-clock only, never DES): every
    #: Daemon incarnation offers it to its tasks as ``TaskContext.compute``
    compute: ComputePlane = field(default_factory=ComputePlane)
    #: cluster-wide checkpoint strategy handed to every Daemon incarnation
    checkpoint: FixedPolicy = FixedPolicy()
    #: the bootstrap roster every Daemon incarnation holds (one tuple,
    #: never copied per Daemon), fixed by the first :meth:`boot_daemon`
    daemon_roster: tuple[Address, ...] = ()

    def __post_init__(self) -> None:
        self.wheel = self.sim.timer_wheel(self.config.heartbeat_period)

    @property
    def network(self):
        return self.testbed.network

    @property
    def tracer(self):
        """The trace bus every layer of this deployment emits into."""
        return self.sim.tracer

    @property
    def superpeer_addresses(self) -> list[Address]:
        """Bootstrap entry points: the Super-Peers that hold Daemon
        Registers — every Super-Peer when flat, the tier-0 leaves when
        tiered (interior Super-Peers index Super-Peers, not Daemons)."""
        return [sp.stub.address for sp in self.superpeers if sp.tier == 0]

    @property
    def leaf_superpeers(self) -> list[SuperPeer]:
        return [sp for sp in self.superpeers if sp.tier == 0]

    def superpeers_of_tier(self, tier: int) -> list[SuperPeer]:
        return [sp for sp in self.superpeers if sp.tier == tier]

    def superpeer_by_id(self, sp_id: str) -> SuperPeer:
        for sp in self.superpeers:
            if sp.sp_id == sp_id:
                return sp
        raise ConfigurationError(f"no Super-Peer {sp_id!r} in this cluster")

    def registered_daemons(self) -> int:
        return sum(len(sp.register) for sp in self.superpeers)

    def boot_daemon(self, host: Host) -> Daemon:
        """Boot a fresh Daemon incarnation on ``host``.

        With gossip on, the Daemon is handed only a SHORT seed
        contact list (two leaf Super-Peers) instead of the full hardcoded
        roster; the rest of the entry points are learned epidemically
        (docs/gossip.md)."""
        incarnation = self.incarnations.get(host.name, 0) + 1
        self.incarnations[host.name] = incarnation
        if not self.daemon_roster:
            # leaf addresses outlive their Super-Peers (a replacement
            # rebinds the same one), so the roster is computed once
            seeds = self.superpeer_addresses
            if self.config.gossip_enabled:
                seeds = seeds[:2]
            self.daemon_roster = tuple(seeds)
        daemon = Daemon(
            network=self.network,
            host=host,
            daemon_id=f"{host.name}#{incarnation}",
            superpeer_addresses=self.daemon_roster,
            config=self.config,
            rng=self.rng.child("daemon", host.name, incarnation),
            telemetry=self.telemetry,
            wheel=self.wheel,
            compute=self.compute,
            checkpoint=self.checkpoint,
        )
        self.daemons[host.name] = daemon
        return daemon

    def boot_superpeer(self, host: Host) -> SuperPeer:
        """Boot a replacement Super-Peer on a recovered ``host``.

        The replacement keeps the dead incumbent's ``sp_id``, port and
        address, so bootstrap address lists and the surviving Super-Peers'
        neighbour stubs (which are address-based) reach it unchanged — the
        paper's entry points are *well-known* nodes.  Its Register starts
        empty; Daemons repopulate it through re-registration (§5.3).
        """
        for i, old in enumerate(self.superpeers):
            if old.host is host:
                replacement = SuperPeer(
                    self.network, host, sp_id=old.sp_id,
                    config=self.config, tier=old.tier,
                )
                self.superpeers[i] = replacement
                if not self.sp_parent and not self.sp_children:
                    # flat topology: re-link the full mesh
                    stubs = [sp.stub for sp in self.superpeers]
                    for sp in self.superpeers:
                        sp.link(stubs)
                else:
                    self._rewire_superpeer(replacement)
                if self.config.gossip_enabled and replacement.tier == 0:
                    _attach_superpeer_gossip(self, replacement)
                return replacement
        raise FaultError(f"host {host.name!r} runs no Super-Peer")

    def _rewire_superpeer(self, sp: SuperPeer) -> None:
        """Restore a replacement Super-Peer's hierarchy wiring from the
        recorded plan.  Addresses are stable, so the rest of the tree's
        stubs for this node still work; only the replacement's own pointers
        (and its parent's summary seed) need refreshing — its child
        summaries then repopulate through the periodic ``tier_summary``
        oneways."""
        parent_id = self.sp_parent.get(sp.sp_id)
        if parent_id is not None:
            parent = self.superpeer_by_id(parent_id)
            sp.set_parent(parent.stub)
            parent.adopt_child(sp.sp_id, sp.stub)
        for child_id in self.sp_children.get(sp.sp_id, []):
            child = self.superpeer_by_id(child_id)
            sp.adopt_child(child.sp_id, child.stub)
        top_tier = max(peer.tier for peer in self.superpeers)
        if sp.tier == top_tier:
            stubs = [peer.stub for peer in self.superpeers_of_tier(top_tier)]
            for peer in self.superpeers_of_tier(top_tier):
                peer.link(stubs)


@collector.world_builder
def build_cluster(
    n_daemons: int,
    n_superpeers: int = 3,
    seed: int = 0,
    config: P2PConfig | None = None,
    homogeneous: bool = False,
    link_scale: float = 1.0,
    loss_rate: float = 0.0,
    tracer=None,
    checkpoint: FixedPolicy = FixedPolicy(),
) -> Cluster:
    """Create a full deployment mirroring the paper's §7 testbed shape.

    ``loss_rate`` drops that fraction of ALL messages in transit — data,
    heartbeats, checkpoints and control calls alike — exercising §5.3's
    claim that the asynchronous model is message-loss tolerant.

    ``tracer`` (a :class:`repro.obs.Tracer`) turns on structured tracing
    across every layer of the deployment; the default leaves the kernel's
    zero-overhead null tracer in place.

    Construction allocates the whole world and frees nothing, so it runs
    with automatic garbage collection suspended (:mod:`repro.des.collector`).
    """
    config = config or P2PConfig()
    rng = RngTree(seed)
    sim = Simulator()
    if tracer is not None:
        sim.tracer = tracer
    sizes = tier_sizes(n_superpeers, config.superpeer_tiers,
                       config.superpeer_fanout)
    testbed = build_testbed(
        sim,
        n_daemons=n_daemons,
        n_superpeers=sum(sizes),  # leaves + interior tiers
        rng=rng.child("testbed") if (not homogeneous or loss_rate > 0) else None,
        homogeneous=homogeneous,
        link_scale=link_scale,
        loss_rate=loss_rate,
        with_standby=config.standby_enabled,
    )
    cluster = Cluster(sim=sim, testbed=testbed, config=config, rng=rng,
                      checkpoint=checkpoint)

    # tier 0 keeps the historical SP0..SPn-1 ids; interior tiers are
    # SP-t<tier>.<index> on the extra Super-Peer hosts
    host_iter = iter(testbed.superpeer_hosts)
    by_tier: list[list[SuperPeer]] = []
    for t, size in enumerate(sizes):
        row = []
        for k in range(size):
            sp_id = f"SP{k}" if t == 0 else f"SP-t{t}.{k}"
            row.append(SuperPeer(testbed.network, next(host_iter), sp_id=sp_id,
                                 config=config, tier=t))
        by_tier.append(row)
        cluster.superpeers.extend(row)

    if len(by_tier) == 1:
        # flat: the paper's fully linked mesh
        stubs = [sp.stub for sp in cluster.superpeers]
        for sp in cluster.superpeers:
            sp.link(stubs)
    else:
        # hierarchy: contiguous fanout-sized blocks per parent; the top
        # tier (possibly several roots) is mesh-linked like the flat case
        for t in range(len(by_tier) - 1):
            for j, sp in enumerate(by_tier[t]):
                parent = by_tier[t + 1][min(j // config.superpeer_fanout,
                                            len(by_tier[t + 1]) - 1)]
                sp.set_parent(parent.stub)
                parent.adopt_child(sp.sp_id, sp.stub)
                cluster.sp_parent[sp.sp_id] = parent.sp_id
                cluster.sp_children.setdefault(parent.sp_id, []).append(sp.sp_id)
        top = by_tier[-1]
        stubs = [sp.stub for sp in top]
        for sp in top:
            sp.link(stubs)

    if config.gossip_enabled:
        # the epidemic control plane rides the leaf Super-Peers' existing
        # RMI ports; interior tiers stay out of the overlay (they hold no
        # Daemon Registers, so advertising them would misroute discovery)
        for sp in cluster.leaf_superpeers:
            _attach_superpeer_gossip(cluster, sp)

    # the reconnection cycle: a recovered machine boots a NEW Daemon (one
    # bound method is every host's hook)
    reboot = cluster.boot_daemon
    for host in testbed.daemon_hosts:
        reboot(host)
        host.on_recover(reboot)

    return cluster


def _attach_superpeer_gossip(cluster: Cluster, sp: SuperPeer) -> GossipAgent:
    """Serve a gossip agent on a leaf Super-Peer's existing runtime.

    Keyed by ``host.fail_count`` so a rebooted Super-Peer's agent draws a
    fresh rng stream (same derivation discipline as Daemon incarnations)."""
    agent = GossipAgent(
        sp.runtime,
        peer_id=sp.sp_id,
        role="superpeer",
        config=cluster.config,
        rng=cluster.rng.child("gossip", sp.sp_id, sp.host.fail_count),
        seeds=cluster.superpeer_addresses[:2],
    )
    sp.gossip = agent
    return agent


def _attach_spawner_gossip(cluster: Cluster, spawner: Spawner) -> GossipAgent:
    """Serve a gossip agent on a Spawner's runtime and wire it into the
    decentralized convergence detector + leadership-beat publisher."""
    agent = GossipAgent(
        spawner.runtime,
        peer_id=f"spawner:{spawner.app.app_id}",
        role="spawner",
        config=spawner.config,
        rng=spawner.rng.child("gossip"),
        seeds=cluster.superpeer_addresses[:2],
    )
    spawner.attach_gossip(agent)
    return agent


def launch_application(cluster: Cluster, app: AppSpec) -> Spawner:
    """Start a Spawner for ``app`` on the testbed's spawner host.

    Each application gets its own Spawner port so several can run
    concurrently (§4.2).  The Spawner's maintenance loop retries
    reservation until enough Daemons have bootstrapped, so launching at
    t=0 is safe.  Spawner fault tolerance (§4.2's future work) is the warm
    standby of :func:`launch_standby`.
    """
    index = len(cluster.spawners)
    config = cluster.config.with_(spawner_port=cluster.config.spawner_port + index)
    spawner = Spawner(
        network=cluster.network,
        host=cluster.testbed.spawner_host,
        app=app,
        superpeer_addresses=cluster.superpeer_addresses,
        config=config,
        rng=cluster.rng.child("spawner", app.app_id),
        telemetry=cluster.telemetry if index == 0 else RunTelemetry(),
    )
    cluster.spawners.append(spawner)
    if cluster.config.gossip_enabled:
        _attach_spawner_gossip(cluster, spawner)
    return spawner


def launch_standby(cluster: Cluster, app: AppSpec, primary: Spawner) -> StandbySpawner:
    """Start the warm-standby Spawner for ``app`` on the standby host.

    The standby shadows ``primary`` by gossip leadership beats plus
    anti-entropy ``fetch_shadow`` pulls, and promotes itself (under a
    fenced, strictly higher reign) when the primary dies mid-run — see
    docs/gossip.md.  Requires a testbed built with a standby host
    (``config.standby_enabled``)."""
    host = cluster.testbed.standby_host
    if host is None:
        raise ConfigurationError(
            "the testbed has no standby host (set standby_enabled)"
        )
    return StandbySpawner(
        network=cluster.network,
        host=host,
        app=app,
        primary_address=primary.runtime.address,
        superpeer_addresses=cluster.superpeer_addresses,
        config=primary.config,
        rng=cluster.rng.child("standby", app.app_id),
        telemetry=primary.telemetry,
    )

