"""Runtime configuration knobs.

Defaults use conventional values (heartbeat/timeout ratios, ports); the
paper's checkpoint settings (every 5 iterations, 20 backup-peers) are the
defaults of :class:`repro.checkpoint.FixedPolicy`, not fields here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError

__all__ = ["P2PConfig"]


@dataclass(frozen=True)
class P2PConfig:
    """All tunables of the JaceP2P runtime."""

    # -- heartbeats / failure detection (§5.3)
    heartbeat_period: float = 1.0
    #: silence longer than this marks a peer dead (must exceed the period)
    heartbeat_timeout: float = 3.5
    #: how often Super-Peers / the Spawner scan for stale heartbeats
    monitor_period: float = 1.0

    # -- RMI
    call_timeout: float = 5.0
    superpeer_port: int = 4000
    daemon_port: int = 4100
    spawner_port: int = 4200

    # -- bootstrap / reservation (§5.1–§5.2)
    bootstrap_retry_delay: float = 1.0
    #: exponential-backoff growth per failed full registration sweep; the
    #: attempt-``k`` delay is ``retry_delay * factor**k`` capped at
    #: ``bootstrap_retry_max``, stretched by up to ``jitter`` (a
    #: deterministic per-attempt draw) so a mass outage does not re-register
    #: in lockstep (the §5.3 relocation storm)
    bootstrap_backoff_factor: float = 2.0
    bootstrap_retry_max: float = 8.0
    bootstrap_retry_jitter: float = 0.1

    # -- checkpointing (§5.4; scheduling lives in repro.checkpoint policies)
    #: fraction of a guardian machine's RAM its BackupStore may occupy
    #: (the paper's Daemons run on 256 MB-1 GB PCs while guarding up to 20
    #: neighbours' checkpoints)
    backup_ram_fraction: float = 0.25

    # -- convergence detection (§5.5)
    convergence_threshold: float = 1e-6
    stability_window: int = 3
    #: "immediate" halts the moment the array is all-stable (the paper's
    #: protocol).  "dwell" implements the §8 improvement direction: hold
    #: the all-stable state for ``verification_dwell`` simulated seconds —
    #: long enough for any in-flight correction wave to flip a bit back —
    #: before declaring global convergence.
    detection_mode: str = "immediate"
    verification_dwell: float = 0.1

    # -- swarm-scale topology (docs/scaling.md)
    #: depth of the Super-Peer hierarchy.  1 = the paper's flat linked
    #: mesh (every Super-Peer indexes Daemons and forwards to every
    #: other).  >= 2 partitions membership: tier-0 (leaf) Super-Peers
    #: hold Daemon Registers, higher tiers index only their child
    #: Super-Peers' liveness summaries, and reservation demand forwards
    #: across tier boundaries — no actor holds O(cluster) state.
    superpeer_tiers: int = 1
    #: children per interior Super-Peer when building a hierarchy
    superpeer_fanout: int = 4
    #: every Daemon heartbeat rides the cluster's one slotted
    #: :class:`~repro.des.kernel.TimerWheel` (docs/scaling.md); every Nth
    #: idle beat is a call-based reaffirm (detects a dead Super-Peer), the
    #: rest are fire-and-forget oneways
    wheel_reaffirm_every: int = 25

    # -- epidemic control plane (repro.gossip, docs/gossip.md)
    #: master switch: when False, no gossip agent is ever created and every
    #: run is bit-identical to the pre-gossip runtime.  When True, Daemons
    #: keep a short seed contact list and learn the other Super-Peers
    #: epidemically, and the Spawner's halt decision also requires the
    #: epidemic stability aggregate to agree with its centralized array
    gossip_enabled: bool = False
    #: dissemination round period (push + one liveness probe per round)
    gossip_period: float = 0.5
    #: random push targets per round (priority roles ride on top)
    gossip_fanout: int = 2
    #: bounded peer-store capacity (the membership view)
    gossip_peer_limit: int = 32
    #: membership entries piggybacked on each push (peer exchange)
    gossip_exchange: int = 4
    #: silence beyond this makes a store entry evictable by a newcomer
    gossip_stale_after: float = 5.0

    # -- warm-standby Spawner (docs/gossip.md failover state machine)
    standby_enabled: bool = False
    standby_port: int = 4300
    #: anti-entropy shadow pull cadence (on a register-version gap)
    standby_sync_period: float = 0.5
    #: leadership-beat silence that triggers the takeover probe
    standby_takeover_timeout: float = 2.0

    # -- execution pacing
    #: floor on per-iteration duration: bounds the event rate of a task
    #: spinning on stale data (real Jace iterations also have JVM overhead)
    min_iteration_time: float = 0.005
    #: fixed per-iteration runtime overhead in seconds (scheduling, JNI, ...)
    iteration_overhead: float = 0.002

    def __post_init__(self) -> None:
        if self.heartbeat_timeout <= self.heartbeat_period:
            raise ConfigurationError("heartbeat_timeout must exceed heartbeat_period")
        if self.heartbeat_period <= 0 or self.monitor_period <= 0:
            raise ConfigurationError("periods must be positive")
        if self.call_timeout <= 0:
            raise ConfigurationError("call_timeout must be positive")
        if not 0.0 < self.backup_ram_fraction <= 1.0:
            raise ConfigurationError("backup_ram_fraction must be in (0, 1]")
        if self.convergence_threshold <= 0:
            raise ConfigurationError("convergence_threshold must be positive")
        if self.stability_window < 1:
            raise ConfigurationError("stability_window must be >= 1")
        if self.min_iteration_time < 0 or self.iteration_overhead < 0:
            raise ConfigurationError("pacing values must be >= 0")
        if self.detection_mode not in ("immediate", "dwell"):
            raise ConfigurationError("detection_mode must be 'immediate' or 'dwell'")
        if self.verification_dwell <= 0:
            raise ConfigurationError("verification_dwell must be positive")
        if self.superpeer_tiers < 1:
            raise ConfigurationError("superpeer_tiers must be >= 1")
        if self.superpeer_fanout < 2:
            raise ConfigurationError("superpeer_fanout must be >= 2")
        if self.wheel_reaffirm_every < 1:
            raise ConfigurationError("wheel_reaffirm_every must be >= 1")
        if self.bootstrap_backoff_factor < 1.0:
            raise ConfigurationError("bootstrap_backoff_factor must be >= 1")
        if self.bootstrap_retry_max < self.bootstrap_retry_delay:
            raise ConfigurationError(
                "bootstrap_retry_max must be >= bootstrap_retry_delay"
            )
        if self.bootstrap_retry_jitter < 0:
            raise ConfigurationError("bootstrap_retry_jitter must be >= 0")
        if self.gossip_period <= 0:
            raise ConfigurationError("gossip_period must be positive")
        if self.gossip_fanout < 1:
            raise ConfigurationError("gossip_fanout must be >= 1")
        if self.gossip_peer_limit < 2:
            raise ConfigurationError("gossip_peer_limit must be >= 2")
        if self.gossip_exchange < 0:
            raise ConfigurationError("gossip_exchange must be >= 0")
        if self.gossip_stale_after <= 0:
            raise ConfigurationError("gossip_stale_after must be positive")
        if self.standby_sync_period <= 0:
            raise ConfigurationError("standby_sync_period must be positive")
        if self.standby_takeover_timeout <= self.monitor_period:
            raise ConfigurationError(
                "standby_takeover_timeout must exceed monitor_period"
            )
        ports = {self.superpeer_port, self.daemon_port, self.spawner_port,
                 self.standby_port}
        if len(ports) != 4:
            raise ConfigurationError("entity ports must be distinct")

    def with_(self, **changes) -> "P2PConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)
