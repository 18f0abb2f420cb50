"""The warm-standby Spawner — epidemic failover for the one stable entity.

Paper §4.2 leaves Spawner fault tolerance as future work.  This module
answers it with a warm standby process on a second machine that

1. **shadows** the primary's recovery state — Application Register and
   reign — by anti-entropy pulls
   (:meth:`~repro.p2p.spawner.Spawner.fetch_shadow`) whenever the
   leadership beats it hears over gossip report a register version ahead
   of its shadow;
2. **detects** primary death: every maintenance round the primary
   publishes a ``("spawner", app)`` rumor versioned ``(reign, beat)``;
   beat silence beyond ``standby_takeover_timeout`` arms a direct ping
   probe, and only a probe failure (not mere gossip lag) declares death;
3. **takes over** mid-run: it boots a real :class:`Spawner` from the
   shadow register under ``reign + 1``, announces the takeover to every
   computing peer (reliable oneways, refused by any peer that already
   adopted a higher reign — the exactly-one-leader guarantee), and the
   application converges without restarting.

There is no cold resume from disk: no peer's disk is stable, so the case
to survive is a Spawner machine that never returns (the ``spawner-down``
fault scenario).  The failover state machine is documented in
docs/gossip.md.
"""

from __future__ import annotations

from repro.des.events import Event
from repro.errors import RemoteError
from repro.gossip import GossipAgent
from repro.net.address import Address
from repro.net.host import Host
from repro.net.network import Network
from repro.obs.instruments import RunTelemetry
from repro.p2p.config import P2PConfig
from repro.p2p.messages import AppSpec
from repro.p2p.spawner import SPAWNER_OBJECT, Spawner
from repro.rmi import RemoteObject, RmiRuntime, Stub, remote
from repro.util.rng import RngTree

__all__ = ["STANDBY_OBJECT", "StandbySpawner"]

STANDBY_OBJECT = "standby"


class StandbySpawner(RemoteObject):
    """Shadows one application's primary Spawner; promotes on its death."""

    def __init__(
        self,
        network: Network,
        host: Host,
        app: AppSpec,
        primary_address: Address,
        superpeer_addresses: list[Address],
        config: P2PConfig,
        rng: RngTree,
        telemetry: RunTelemetry,
    ):
        self.sim = network.sim
        self.network = network
        self.host = host
        self.app = app
        self.primary_address = primary_address
        self.superpeer_addresses = list(superpeer_addresses)
        self.config = config
        self.rng = rng
        self.telemetry = telemetry

        self.runtime = RmiRuntime(
            network, host, config.standby_port,
            name=f"standby:{app.app_id}",
            call_timeout=config.call_timeout,
        )
        self.stub = self.runtime.serve(self, STANDBY_OBJECT)
        self.gossip = GossipAgent(
            self.runtime,
            peer_id=f"standby:{app.app_id}",
            role="standby",
            config=config,
            rng=rng.child("gossip"),
            seeds=[primary_address] + self.superpeer_addresses[:2],
        )
        self.gossip.subscribe(("spawner", app.app_id), self._on_leader_beat)

        #: shadow of the primary's recovery state (anti-entropy pulls)
        self.shadow_register = None
        self.shadow_reign = 1
        self.shadow_version = -1
        #: highest-versioned register the leadership beats advertised
        self.wanted_version = 0
        self._last_beat_version: tuple[int, int] = (0, 0)
        self._last_beat_at = self.sim.now
        self._last_pull_at = -float("inf")
        self.shadow_pulls = 0

        self.promoted = False
        self.takeover_at: float | None = None
        #: the promoted Spawner (None until takeover)
        self.spawner: Spawner | None = None
        #: triggers when the PROMOTED spawner's application converges; the
        #: driver waits on ``primary.done | standby.done | horizon``
        self.done: Event = self.sim.event(name=f"{app.app_id}:standby-done")

        host.spawn(self._watch(), label=f"standby:{app.app_id}")

    # -- remote interface -------------------------------------------------------

    @remote
    def ping(self) -> bool:
        return True

    # -- shadowing --------------------------------------------------------------

    def _on_leader_beat(self, key, version, value) -> None:
        """A ``("spawner", app)`` rumor merged: the leadership beat.

        ``version = (reign, beat)`` — tuple order makes a new reign's first
        beat outrank any count of the old reign's."""
        version = tuple(version)
        if version <= self._last_beat_version:
            return
        self._last_beat_version = version
        self._last_beat_at = self.sim.now
        self.wanted_version = max(self.wanted_version,
                                  int(value.get("version", 0)))
        # eager anti-entropy: a beat advertising a register ahead of the
        # shadow triggers a pull NOW (rate-limited) instead of waiting for
        # the next watch tick — the window in which the primary can die
        # with a stale shadow shrinks to one gossip hop
        if (not self.promoted
                and self.shadow_version < self.wanted_version
                and self.sim.now - self._last_pull_at
                >= self.config.standby_sync_period):
            self._last_pull_at = self.sim.now
            self.host.spawn(self._pull_once(),
                            label=f"standby:{self.app.app_id}:pull")

    def _watch(self):
        """The failover state machine: SHADOWING -> PROBING -> PROMOTED.

        Ticks at the sync cadence (not the slower monitor period): the
        first anti-entropy pull must land BEFORE the primary can die, or
        the takeover degenerates into a cold restart from an empty
        register."""
        tick = min(self.config.standby_sync_period, self.config.monitor_period)
        while self.runtime.alive and not self.promoted:
            yield self.sim.timeout(tick)
            if self.promoted or self.done.triggered:
                return
            if (self.shadow_version < self.wanted_version
                    and self.sim.now - self._last_pull_at
                    >= self.config.standby_sync_period):
                yield from self._pull_shadow()
            if (self.sim.now - self._last_beat_at
                    > self.config.standby_takeover_timeout):
                dead = yield from self._probe_primary()
                # a failed ping alone is not death: a live primary whose
                # direct path dropped the probe still beats over gossip —
                # promote only if the leadership silence persisted through
                # the probe
                if dead and (self.sim.now - self._last_beat_at
                             > self.config.standby_takeover_timeout):
                    self._promote()
                    return

    def _pull_once(self):
        if not self.promoted:
            yield from self._pull_shadow()

    def _pull_shadow(self):
        """Anti-entropy: one ``fetch_shadow`` call against the primary."""
        self._last_pull_at = self.sim.now
        try:
            shadow = yield self.runtime.call(
                Stub(SPAWNER_OBJECT, self.primary_address), "fetch_shadow",
                self.app.app_id, timeout=self.config.call_timeout,
            )
        except RemoteError:
            return  # the takeover probe, not the pull, decides death
        if shadow is None:
            return
        register, reign = shadow
        self.shadow_register = register
        self.shadow_reign = max(self.shadow_reign, reign)
        self.shadow_version = register.version
        self.shadow_pulls += 1
        self._trace("shadow_pull", version=register.version, reign=reign)

    def _probe_primary(self):
        """Gossip silence is only *suspicion*; a direct ping failure is the
        death verdict (protects against a slow gossip path promoting a
        second leader while the primary still runs)."""
        self._trace("probe_primary", silence=self.sim.now - self._last_beat_at)
        try:
            yield self.runtime.call(
                Stub(SPAWNER_OBJECT, self.primary_address), "ping",
                timeout=min(self.config.call_timeout,
                            self.config.standby_takeover_timeout),
            )
        except RemoteError:
            return True
        self._last_beat_at = self.sim.now  # alive, just a slow gossip path
        return False

    # -- takeover ---------------------------------------------------------------

    def _promote(self) -> None:
        """Boot a real Spawner from the shadow under a fenced, strictly
        higher reign: ``max(shadow, beats) + 1``, above every reign the
        standby has seen, so Daemons adopt it and refuse the old one."""
        self.promoted = True
        self.takeover_at = self.sim.now
        reign = max(self.shadow_reign, self._last_beat_version[0]) + 1
        self._trace("takeover", reign=reign,
                    shadow_version=self.shadow_version)
        spawner = Spawner(
            network=self.network,
            host=self.host,
            app=self.app,
            superpeer_addresses=self.superpeer_addresses,
            config=self.config,
            rng=self.rng.child("promote", reign),
            telemetry=self.telemetry,
            resume_from=self.shadow_register,
            reign=reign,
        )
        spawner.attach_gossip(self.gossip)
        spawner.announce_takeover()
        self.spawner = spawner
        self.host.spawn(self._chain_done(spawner),
                        label=f"standby:{self.app.app_id}:done")

    def _chain_done(self, spawner: Spawner):
        yield spawner.done
        if not self.done.triggered:
            self.done.succeed({"converged_at": self.sim.now})

    # -- observability ----------------------------------------------------------

    def _trace(self, kind: str, **attrs) -> None:
        tr = self.sim.tracer
        if tr.enabled:
            tr.emit(self.sim.now, "gossip", f"standby:{self.app.app_id}",
                    kind, **attrs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<StandbySpawner {self.app.app_id} promoted={self.promoted} "
                f"shadow_v={self.shadow_version} reign={self.shadow_reign}>")
