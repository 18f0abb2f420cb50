"""The Spawner: application launcher, membership manager, convergence judge.

Paper §5.2–§5.5.  The Spawner is the one stable entity (it runs on the
application programmer's machine): it reserves Daemons through the
Super-Peer network, builds and broadcasts the Application Register, monitors
the computing peers' heartbeats, replaces failed ones (reserving substitutes
and re-launching their task from the newest Backup), and centralizes the
global convergence array that halts the application.
"""

from __future__ import annotations

from typing import Any

from repro.convergence import GlobalConvergenceTracker
from repro.des import Simulator
from repro.des.events import Event
from repro.errors import ConfigurationError, RemoteError, TaskError
from repro.net.address import Address
from repro.net.host import Host
from repro.net.network import Network
from repro.p2p.config import P2PConfig
from repro.p2p.messages import AppSpec, ApplicationRegister, RegisterDelta, TaskSlot
from repro.p2p.superpeer import SUPERPEER_OBJECT
from repro.obs.instruments import RunTelemetry
from repro.rmi import RemoteObject, RmiRuntime, Stub, remote
from repro.util.rng import RngTree

__all__ = ["Spawner"]

SPAWNER_OBJECT = "spawner"


class Spawner(RemoteObject):
    """Launches and supervises one application."""

    def __init__(
        self,
        network: Network,
        host: Host,
        app: AppSpec,
        superpeer_addresses: list[Address],
        config: P2PConfig,
        rng: RngTree,
        telemetry: RunTelemetry,
        resume_from: ApplicationRegister | None = None,
        reign: int = 1,
    ):
        """``resume_from`` boots this Spawner as the *replacement* of a
        failed one — the promoted warm standby's
        (:mod:`repro.p2p.standby`) — adopting the shadowed register (epochs
        intact) instead of starting from empty slots.  ``reign`` is the
        leadership-fencing number: a takeover runs under a strictly higher
        reign, and Daemons refuse adoption announcements that do not
        advance it — the exactly-one-leader guarantee."""
        if not superpeer_addresses:
            raise ConfigurationError("the Spawner needs at least one Super-Peer address")
        self.sim: Simulator = network.sim
        self.network = network
        self.host = host
        self.app = app
        self.superpeer_addresses = list(superpeer_addresses)
        self.config = config
        self.rng = rng
        self.telemetry = telemetry
        if resume_from is None:
            # the run's clock starts at the first launch; a takeover
            # carries it on
            self.telemetry.launched_at = self.sim.now

        self.resumed = resume_from is not None
        if resume_from is not None:
            if (resume_from.app_id != app.app_id
                    or resume_from.num_tasks != app.num_tasks):
                raise ConfigurationError("resume_from does not match this application")
            self.register = resume_from.snapshot()
            self.register.version += 1  # our reign starts a new version
        else:
            self.register = ApplicationRegister.empty(app.app_id, app.num_tasks)
        self.tracker = GlobalConvergenceTracker(app.num_tasks)
        self.last_seen: dict[int, float] = {}
        if self.resumed:
            # grace period: let the surviving daemons' heartbeats arrive
            # before anyone is declared dead
            for slot in self.register.slots:
                if slot.assigned:
                    self.last_seen[slot.task_id] = self.sim.now
        self.done: Event = self.sim.event(name=f"{app.app_id}:done")
        self.replacements = 0
        self.failures_detected = 0
        self.register_broadcasts = 0
        self._unstable_generation = 0  # bumped whenever any bit clears
        self._dwell_active = False
        self.dwell_aborts = 0
        self._last_broadcast_version = 0
        self._changed_since_broadcast: set[int] = set()
        self.resyncs_served = 0
        #: :meth:`_reserve` sweeps so far: keys each sweep's contact order
        self._reservations = 0
        self.reign = reign
        #: attached via :meth:`attach_gossip`; None keeps every legacy code
        #: path untouched (bitwise identity with gossip disabled)
        self.gossip = None
        self._beat = 0  # leadership-beat counter, versioned under the reign
        #: epidemic stability bits: task_id -> (epoch, flips, stable) — the
        #: decentralized detector's view, merged from gossip rumors
        self._epidemic_bits: dict[int, tuple[int, int, bool]] = {}
        self.crosscheck_agreements = 0
        self._reattach_dirty = False
        self.threshold, self.window = app.convergence(
            config.convergence_threshold, config.stability_window)

        self.runtime = RmiRuntime(
            network, host, config.spawner_port,
            name=f"spawner:{app.app_id}",
            call_timeout=config.call_timeout,
        )
        self.stub = self.runtime.serve(self, SPAWNER_OBJECT)
        host.spawn(self._maintain(), label=f"spawner:{app.app_id}")

    # -- remote interface ------------------------------------------------------

    @remote
    def heartbeat_task(
        self,
        app_id: str,
        task_id: int,
        epoch: int,
        daemon_id: str,
        daemon_stub: Stub,
        stable: bool,
        register_version: int,
    ) -> None:
        """Liveness signal from a computing peer (§5.3).

        A beat from an epoch older than the slot's (a partition zombie, or
        the ghost of a timed-out assignment) is answered with one ``fence``
        to the sender's stub.

        Carries the sender's current local-stability bit: the flip-time
        ``set_state`` messages are oneway and lossy, so this periodic
        refresh is what makes convergence detection robust to loss.  A
        current heartbeat arriving after completion triggers a ``halt``
        re-send (the original halt may itself have been lost).

        It also carries the sender's Application Register version.  The
        broadcast that follows an assignment or replacement is oneway and
        can be lost to message loss or a partition; a peer left with a
        stale register keeps computing but silently skips every neighbour
        its copy does not know (a wrong-but-converged fixed point).  When
        a heartbeat reports an old version the Spawner re-sends the full
        register — anti-entropy repair keeping §5.3's "the recipient is
        automatically updated" true under faults."""
        if app_id != self.app.app_id or not 0 <= task_id < self.app.num_tasks:
            return
        slot = self.register.slot(task_id)
        if epoch < slot.epoch:
            self._trace("fence", task=task_id, daemon=daemon_id,
                        epoch=slot.epoch, stale_epoch=epoch)
            self.runtime.oneway(daemon_stub, "fence",
                                app_id, task_id, slot.epoch)
            return
        if slot.epoch != epoch or slot.daemon_id != daemon_id:
            return  # not (or no longer) the slot's owner: ignore
        if self.done.triggered:
            if slot.daemon_stub is not None:
                self.runtime.oneway(slot.daemon_stub, "halt", self.app.app_id)
            return
        self.last_seen[task_id] = self.sim.now
        self._trace("heartbeat", task=task_id, daemon=daemon_id)
        if (register_version < self._last_broadcast_version
                and slot.daemon_stub is not None):
            self._trace("register_repair", task=task_id, daemon=daemon_id,
                        stale_version=register_version,
                        version=self.register.version)
            self.runtime.oneway(
                slot.daemon_stub, "update_register", self.register.snapshot()
            )
        self.set_state(app_id, task_id, epoch, stable)

    @remote
    def set_state(self, app_id: str, task_id: int, epoch: int, stable: bool) -> None:
        """A 1/0 local-convergence message (§5.5)."""
        if self.done.triggered:
            return
        if app_id != self.app.app_id or not 0 <= task_id < self.app.num_tasks:
            return
        if self.register.slot(task_id).epoch != epoch:
            return  # stale incarnation
        self.tracker.set_state(task_id, stable)
        if not stable:
            self._unstable_generation += 1
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        """Both detectors must agree before the halt decision (§5.5 plus the
        decentralized cross-check): the centralized array says converged AND
        the epidemic aggregate confirms it.  With gossip disabled the
        epidemic gate is vacuously true and this is exactly the historical
        decision."""
        if self.done.triggered or not self.tracker.converged:
            return
        if not self._epidemic_agrees():
            self._trace("epidemic_lag", stable=self.tracker.stable_count)
            return
        if self.gossip is not None:
            self.crosscheck_agreements += 1
        if self.config.detection_mode == "immediate":
            self._finish()
        elif not self._dwell_active:
            self._dwell_active = True
            self.host.spawn(self._verification_dwell(),
                            label=f"spawner:{self.app.app_id}:dwell")

    def _epidemic_agrees(self) -> bool:
        """True when every task's epidemically-aggregated stability bit is
        set for its *current* epoch (the epoch guard discards rumors from
        replaced incarnations)."""
        if self.gossip is None:
            return True
        for slot in self.register.slots:
            bit = self._epidemic_bits.get(slot.task_id)
            if bit is None or bit[0] != slot.epoch or not bit[2]:
                return False
        return True

    @remote
    def ping(self) -> bool:
        return True

    # -- supervision loop ---------------------------------------------------------

    def _maintain(self):
        """Failure detection + (re)assignment, in one periodic loop.

        Initial launch is just the degenerate case "every slot is
        unassigned"; replacement after a failure re-enters the same path
        with ``restart=True`` (the Daemon then runs Backup recovery).
        """
        if self.resumed:
            # announce the takeover: surviving daemons adopt the new
            # register version and resume heartbeating us
            self._broadcast_register()
        while not self.done.triggered:
            self._publish_leadership()
            changed = self._detect_failures()
            if self._reattach_dirty:
                changed = True
                self._reattach_dirty = False
            unassigned = [s for s in self.register.slots if not s.assigned]
            if unassigned:
                changed |= yield from self._fill_slots(unassigned)
            if changed:
                self._broadcast_register()
                # beat again so the standby's shadow learns the new
                # register version within a gossip round, not a monitor one
                self._publish_leadership()
            yield self.sim.timeout(self.config.monitor_period)

    def _detect_failures(self) -> bool:
        deadline = self.sim.now - self.config.heartbeat_timeout
        changed = False
        for slot in self.register.slots:
            if not slot.assigned:
                continue
            seen = self.last_seen.get(slot.task_id, -1.0)
            if seen < deadline:
                self._trace("hb_miss", task=slot.task_id, daemon=slot.daemon_id,
                            last_seen=seen)
                slot.daemon_id = None
                slot.daemon_stub = None
                self.tracker.reset_task(slot.task_id)
                self.failures_detected += 1
                self.register.version += 1
                self._changed_since_broadcast.add(slot.task_id)
                changed = True
        return changed

    def _fill_slots(self, unassigned):
        """Reserve Daemons and launch the given slots on them (§5.2)."""
        pairs = yield from self._reserve(len(unassigned))
        changed = False
        for slot, (daemon_id, stub) in zip(unassigned, pairs):
            restart = slot.epoch > 0
            # fence every ATTEMPT: if this assignment times out but the
            # daemon actually started (a ghost), its epoch is already
            # superseded and all its control messages will be rejected
            slot.epoch += 1
            epoch = slot.epoch
            self.register.version += 1
            snapshot = self.register.snapshot()
            snapshot.slot(slot.task_id).daemon_id = daemon_id
            snapshot.slot(slot.task_id).daemon_stub = stub
            snapshot.slot(slot.task_id).epoch = epoch
            try:
                yield self.runtime.call(
                    stub, "assign_task",
                    self.app.app_id, self.app.task_factory, slot.task_id,
                    self.app.num_tasks, self.app.params, snapshot,
                    self.stub, epoch, restart, self.threshold, self.window,
                    timeout=self.config.call_timeout,
                )
            except (RemoteError, TaskError):
                # lost it between reservation and launch: slot stays empty,
                # the next maintenance round reserves a substitute
                self._trace("spawner_assign_failed", task=slot.task_id,
                            daemon=daemon_id)
                continue
            slot.daemon_id = daemon_id
            slot.daemon_stub = stub
            slot.epoch = epoch
            self._changed_since_broadcast.add(slot.task_id)
            self.last_seen[slot.task_id] = self.sim.now
            self.tracker.reset_task(slot.task_id)
            if restart:
                self.replacements += 1
            self._trace("slot_filled", task=slot.task_id, daemon=daemon_id,
                        epoch=epoch, restart=restart)
            changed = True
        return changed

    def _reserve(self, count: int):
        """Ask the Super-Peer network for up to ``count`` Daemons, trying
        bootstrap addresses in random order and accumulating partial grants
        until the demand is met (a Super-Peer forwards unmet demand itself,
        §5.2).  Each contact gets its *own* timeout, sized for one request
        walking the whole forwarding graph; a partial grant no longer wins
        the sweep outright — the remainder is re-requested from the next
        contact instead of silently under-filling the slots."""
        self._reservations += 1
        contacts = self.superpeer_addresses
        order = self.rng.child("reserve").picks(
            len(contacts), len(contacts), stream=self._reservations)
        pairs = []
        for addr in map(contacts.__getitem__, order):
            sp = Stub(SUPERPEER_OBJECT, addr)
            try:
                # a forwarded request may walk the whole mesh — and, when
                # tiered, each hop may recurse through the hierarchy
                got = yield self.runtime.call(
                    sp, "reserve", count - len(pairs), (),
                    timeout=(self.config.call_timeout
                             * max(1, self.config.superpeer_tiers)
                             * max(1, len(self.superpeer_addresses))),
                )
            except RemoteError:
                self._trace("reserve_timeout", contact=str(addr),
                            granted=len(pairs), wanted=count)
                continue
            if got:
                pairs.extend(got)
                if len(pairs) >= count:
                    break
        return pairs[:count]

    def _broadcast_register(self) -> None:
        """Push the updated Application Register to every computing peer
        (Fig. 4(b)).  Oneway: an unreachable peer is already presumed dead.

        The first broadcast ships the whole register; every later one
        ships only the slots changed since the last — the §8 "broadcast
        of register" improvement — with receivers pulling a full snapshot
        on a version gap.  Both ride the reliable channel: a
        permanently-lost register update would starve a neighbour forever
        (in the real system this is a TCP RMI call).
        """
        if self._last_broadcast_version > 0:
            payload = RegisterDelta(
                app_id=self.app.app_id,
                from_version=self._last_broadcast_version,
                to_version=self.register.version,
                changes=[
                    TaskSlot(s.task_id, s.daemon_id, s.daemon_stub, s.epoch)
                    for s in self.register.slots
                    if s.task_id in self._changed_since_broadcast
                ],
            )
            method = "update_register_delta"
        else:
            payload = self.register.snapshot()
            method = "update_register"
        for slot in self.register.slots:
            if slot.assigned:
                self.runtime.oneway(
                    slot.daemon_stub, method, payload, reliable=True)
        self._last_broadcast_version = self.register.version
        self._changed_since_broadcast.clear()
        self.register_broadcasts += 1

    @remote
    def fetch_register(self, app_id: str) -> ApplicationRegister | None:
        """Full-snapshot resync for a Daemon that detected a delta gap."""
        if app_id != self.app.app_id:
            return None
        self.resyncs_served += 1
        return self.register.snapshot()

    # -- epidemic control plane (repro.gossip, docs/gossip.md) ------------------

    def attach_gossip(self, agent) -> None:
        """Wire a :class:`~repro.gossip.GossipAgent` into the control plane:
        the agent feeds the decentralized convergence detector and carries
        the leadership beats the warm standby watches."""
        self.gossip = agent
        agent.subscribe(("stab", self.app.app_id), self._on_stab_rumor)
        # replay rumors the agent merged before we attached (a promoted
        # standby's agent has been shadowing stability bits all along)
        for key, (version, value) in list(agent.rumors.items()):
            if key[:2] == ("stab", self.app.app_id):
                self._on_stab_rumor(key, version, value)
        self._publish_leadership()

    def _on_stab_rumor(self, key, version, value) -> None:
        """Merge one epidemically-delivered local-stability bit.

        ``key = ("stab", app_id, task_id)``, ``version = (epoch, flips)``,
        ``value = stable``.  Versions are monotone per key (the agent only
        fires on merges), so a replaced incarnation's bits lose to the
        higher epoch by tuple order."""
        task_id = key[2]
        if not 0 <= task_id < self.app.num_tasks:
            return
        self._epidemic_bits[task_id] = (version[0], version[1], bool(value))
        self._maybe_finish()

    def _publish_leadership(self) -> None:
        """One leadership beat per maintenance round: a ``("spawner", app)``
        rumor versioned ``(reign, beat)``.  The standby watches this beat
        advance; silence beyond ``standby_takeover_timeout`` arms its
        takeover probe."""
        if self.gossip is None:
            return
        self._beat += 1
        self.gossip.set_rumor(
            ("spawner", self.app.app_id), (self.reign, self._beat),
            {"version": self.register.version,
             "address": self.runtime.address},
        )

    @remote
    def fetch_shadow(self, app_id: str):
        """Anti-entropy pull by the warm standby: the full recovery state
        (register snapshot, reign) in one call."""
        if app_id != self.app.app_id:
            return None
        return (self.register.snapshot(), self.reign)

    @remote
    def reattach_task(
        self, app_id: str, task_id: int, epoch: int, daemon_id: str,
        daemon_stub: Stub,
    ) -> bool:
        """A surviving computing peer reclaims its slot after a takeover.

        A promoted standby may boot from a shadow older than the live
        membership (its last anti-entropy pull predated assignments the
        dead primary made).  Peers that adopted the new leader over gossip
        call this to reconcile: a claimant whose epoch outranks an *empty*
        slot is re-admitted with its incarnation intact (no Backup restart);
        a claimant outranked by the slot's current occupant is refused and
        halts itself — the slot already has a live replacement."""
        if app_id != self.app.app_id or not 0 <= task_id < self.app.num_tasks:
            return False
        if self.done.triggered:
            return False
        slot = self.register.slot(task_id)
        if slot.daemon_id == daemon_id and slot.epoch == epoch:
            self.last_seen[task_id] = self.sim.now
            return True  # already current (the warm-shadow path): idempotent
        if slot.assigned or slot.epoch > epoch:
            # an equal-epoch claimant of an EMPTY slot is the very daemon
            # this epoch was fenced for (failure detection cleared it but
            # kept the epoch) — readmit it; anything older is refused
            return False
        slot.daemon_id = daemon_id
        slot.daemon_stub = daemon_stub
        slot.epoch = epoch
        self.register.version += 1
        self._changed_since_broadcast.add(task_id)
        self._reattach_dirty = True
        self.last_seen[task_id] = self.sim.now
        self.tracker.reset_task(task_id)
        self._trace("reattach", task=task_id, daemon=daemon_id, epoch=epoch)
        return True

    def announce_takeover(self) -> None:
        """Tell every assigned computing peer to adopt this Spawner as its
        leader.  Reliable oneways, fenced by the reign: a peer that already
        adopted a higher reign refuses (exactly-one-leader)."""
        for slot in self.register.slots:
            if slot.assigned:
                self.runtime.oneway(
                    slot.daemon_stub, "adopt_spawner",
                    self.app.app_id, self.reign, self.stub,
                    reliable=True,
                )
        self._trace("takeover_announced", reign=self.reign,
                    version=self.register.version)

    def _verification_dwell(self):
        """The §8 hardening: declare convergence only if the array stays
        all-stable for a dwell period (outlasting in-flight messages)."""
        generation = self._unstable_generation
        yield self.sim.timeout(self.config.verification_dwell)
        self._dwell_active = False
        if self.done.triggered:
            return
        if (self.tracker.converged and generation == self._unstable_generation
                and self._epidemic_agrees()):
            self._finish()
        else:
            self.dwell_aborts += 1
            self._trace("spawner_dwell_aborted")
            # if the system is all-stable again already, re-arm immediately
            if self.tracker.converged and self._epidemic_agrees():
                self._dwell_active = True
                self.host.spawn(self._verification_dwell(),
                                label=f"spawner:{self.app.app_id}:dwell")

    # -- completion -------------------------------------------------------------

    def _finish(self) -> None:
        if self.done.triggered:
            return
        self.telemetry.converged_at = self.sim.now
        self._trace("converged", iterations=self.telemetry.total_iterations)
        for slot in self.register.slots:
            if slot.assigned:
                self.runtime.oneway(slot.daemon_stub, "halt", self.app.app_id)
        self.done.succeed({"converged_at": self.sim.now})

    def collect_solution(self):
        """Generator (run it as a process after ``done``): fetch each task's
        owned solution fragment.  Returns ``{task_id: fragment | None}``."""
        calls = {}
        for slot in self.register.slots:
            if slot.assigned:
                calls[slot.task_id] = self.runtime.call(
                    slot.daemon_stub, "fetch_solution", self.app.app_id,
                    timeout=self.config.call_timeout,
                )
        results: dict[int, Any] = {t: None for t in range(self.app.num_tasks)}
        results.update((yield from self.runtime.gather(calls)))
        return results

    @property
    def execution_time(self) -> float | None:
        return self.telemetry.execution_time

    def _trace(self, kind: str, **attrs) -> None:
        tr = self.sim.tracer
        if tr.enabled:
            tr.emit(self.sim.now, "p2p", f"spawner:{self.app.app_id}", kind, **attrs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Spawner {self.app.app_id} assigned={self.register.assigned_count()}"
            f"/{self.app.num_tasks} stable={self.tracker.stable_count}>"
        )
