"""The Daemon: a computing peer (paper §4.2, §5).

A Daemon bootstraps into the Super-Peer network with a list of Super-Peer
addresses (the only place raw addresses are used, §5.1), heartbeats whoever
currently owns it (its Super-Peer while idle, the Spawner while computing),
runs at most one Task at a time, stores Backup objects for its neighbour
tasks, and exchanges asynchronous data messages directly with the other
computing peers through their stubs.

A Daemon lives and dies with its host: when the churn injector powers the
machine off, its processes are interrupted and its endpoint closes (its
bootstrap and heartbeats are callbacks, not processes: pending ones find
the runtime dead and do nothing); on reconnection the cluster boots a
*fresh* Daemon (new incarnation id, same address) that re-registers from
scratch — any checkpoints the old incarnation guarded are gone, exactly
the RAM-loss the paper's multi-backup strategy is designed to survive.
"""

from __future__ import annotations

import zlib
from functools import partial
from typing import Any, Sequence

from repro.checkpoint import (Backup, BackupStore, CheckpointPolicy,
                              FailureFeed, choose_latest)
from repro.convergence import LocalConvergenceDetector
from repro.gossip import GossipAgent
from repro.des import Event, Simulator, TimerWheel
from repro.des.events import URGENT
from repro.errors import ConfigurationError, RemoteError, TaskError
from repro.net.address import Address
from repro.net.host import BASE_FLOPS, Host
from repro.net.network import Network
from repro.p2p.config import P2PConfig
from repro.p2p.messages import ApplicationRegister
from repro.p2p.spawner import SPAWNER_OBJECT
from repro.p2p.superpeer import SUPERPEER_OBJECT
from repro.p2p.task import Task, TaskContext
from repro.obs.instruments import RunTelemetry
from repro.rmi import RemoteObject, RmiRuntime, Stub, remote
from repro.util.rng import RngTree

__all__ = ["Daemon", "TaskRunner", "DAEMON_OBJECT"]

#: name under which every Daemon exports itself
DAEMON_OBJECT = "daemon"

#: exponential-backoff growth per failed full registration sweep: the
#: attempt-``k`` delay is ``bootstrap_retry_delay * factor**k`` capped at
#: ``bootstrap_retry_max``, then stretched by up to ``BOOTSTRAP_RETRY_JITTER``
#: (a deterministic per-attempt draw) so a mass outage does not re-register
#: in lockstep (the §5.3 relocation storm)
BOOTSTRAP_BACKOFF_FACTOR = 2.0
BOOTSTRAP_RETRY_JITTER = 0.1

#: fraction of a guardian machine's RAM its BackupStore may occupy (the
#: paper's Daemons run on 256 MB-1 GB PCs while guarding up to 20
#: neighbours' checkpoints)
BACKUP_RAM_FRACTION = 0.25

#: every Daemon heartbeat rides the cluster's one slotted
#: :class:`~repro.des.kernel.TimerWheel` (docs/scaling.md); every Nth idle
#: beat is a call-based reaffirm (detects a dead Super-Peer), the rest are
#: fire-and-forget oneways
WHEEL_REAFFIRM_EVERY = 25


class TaskRunner:
    """Drives one Task's asynchronous iteration loop on a Daemon."""

    def __init__(
        self,
        daemon: "Daemon",
        app_id: str,
        task: Task,
        task_id: int,
        num_tasks: int,
        params: dict,
        register: ApplicationRegister,
        spawner_stub: Stub,
        epoch: int,
        restart: bool,
        convergence_threshold: float,
        stability_window: int,
        telemetry: RunTelemetry,
    ):
        self.daemon = daemon
        self.sim = daemon.sim
        self.config = daemon.config
        self.app_id = app_id
        self.task = task
        self.task_id = task_id
        self.num_tasks = num_tasks
        self.params = params
        self.register = register
        self.spawner_stub = spawner_stub
        self.epoch = epoch
        self.restart = restart
        #: fencing reign of the Spawner we obey (a standby takeover
        #: announces a higher reign; lower-reign announcements are stale)
        self.leader_reign = 1
        self.telemetry = telemetry
        self.policy = daemon.checkpoint.bind(num_tasks,
                                             feed=daemon.failure_feed)
        self.detector = LocalConvergenceDetector(
            threshold=convergence_threshold, stability_window=stability_window
        )
        self.inbox: dict[int, Any] = {}
        self.iteration = 0
        self.halted = False
        #: rejected-component count already surfaced as traces/metrics
        self._rejected_seen = 0

    # -- runtime hooks (called by the Daemon's remote methods) ----------------

    def deliver(self, src_task: int, payload: Any) -> None:
        """Last-write-wins mailbox: only the freshest payload per neighbour
        survives until the next iteration reads it (§4.1: peers exchange
        *local results*, not queues of history)."""
        self.inbox[src_task] = payload

    def adopt_register(self, register: ApplicationRegister) -> None:
        if register.version > self.register.version:
            self.register = register

    # -- the iteration loop ----------------------------------------------------

    def run(self):
        """Generator body of the compute process (spawned on the host)."""
        try:
            ctx = TaskContext(
                app_id=self.app_id,
                task_id=self.task_id,
                num_tasks=self.num_tasks,
                params=self.params,
                compute=self.daemon.compute,
            )
            self.task.setup(ctx)
            if self.restart:
                yield from self._recover()
            else:
                self.task.load_state(self.task.initial_state())
                self.iteration = 0

            host = self.daemon.host
            rate = host.speed * BASE_FLOPS
            config = self.config
            while not self.halted:
                inbox, self.inbox = self.inbox, {}
                fresh = bool(inbox)
                step = self.task.iterate(inbox)
                duration = max(
                    step.flops / rate + config.iteration_overhead,
                    config.min_iteration_time,
                )
                yield self.sim.timeout(duration)
                if self.halted:
                    break
                self.iteration += 1
                telemetry = self.telemetry
                telemetry.iterations[self.task_id] += 1
                if not fresh and self.num_tasks > 1:
                    telemetry.useless_iterations[self.task_id] += 1
                self.policy.on_iteration(self.sim.now, duration)
                self._surface_rejections()
                self._send_outgoing(step.outgoing)
                self._maybe_checkpoint()
                self._report_convergence(step.local_distance)
        finally:
            self.daemon._runner_finished(self)

    # -- recovery (§5.4, Fig. 6) --------------------------------------------------

    def _recover(self):
        """Reload the newest surviving Backup, or restart from scratch."""
        runtime = self.daemon.runtime
        calls = {}
        for peer_task in self.policy.backup_peers(self.task_id):
            stub = self.register.stub_of(peer_task)
            if stub is None:
                continue
            calls[peer_task] = runtime.call(
                stub, "backup_iteration", self.app_id, self.task_id,
                timeout=self.config.call_timeout,
            )
        offers = yield from runtime.gather(calls)
        best_peer = choose_latest(offers)
        backup = None
        if best_peer is not None:
            stub = self.register.stub_of(best_peer)
            if stub is not None:
                try:
                    backup = yield runtime.call(
                        stub, "load_backup", self.app_id, self.task_id,
                        timeout=self.config.call_timeout,
                    )
                except RemoteError:
                    backup = None
        if backup is not None and self.params.get("reject_corruption"):
            # a Backup of a corrupted iterate would re-seed the poison on
            # every recovery: screen it like any other incoming data
            if not self.task.state_plausible(backup.state):
                self.daemon._trace("checkpoint_rejected", task=self.task_id,
                                   iteration=backup.iteration,
                                   guardian=best_peer)
                self.telemetry.checkpoints_rejected += 1
                backup = None
        if backup is not None:
            self.task.load_state(backup.restore())
            self.iteration = backup.iteration
            from_scratch = False
        else:
            self.task.load_state(self.task.initial_state())
            self.iteration = 0
            from_scratch = True
        self.policy.on_rollback(self.iteration)
        self.daemon._trace("recovery", task=self.task_id,
                           iteration=self.iteration, from_scratch=from_scratch)
        self.telemetry.record_recovery(
            self.sim.now, self.task_id, self.iteration, from_scratch
        )

    # -- per-iteration duties --------------------------------------------------------

    def _send_outgoing(self, outgoing: dict[int, Any]) -> None:
        runtime = self.daemon.runtime
        for dst_task, payload in outgoing.items():
            if dst_task == self.task_id:
                continue
            stub = self.register.stub_of(dst_task)
            if stub is None:
                continue  # neighbour currently unassigned: message lost
            # the sender's epoch lets the receiver fence out a replaced
            # incarnation that is still computing (a partition zombie)
            runtime.oneway(
                stub, "receive_data",
                self.app_id, dst_task, self.task_id, self.epoch, payload,
            )
            self.telemetry.data_messages_sent += 1

    def _surface_rejections(self) -> None:
        """Emit trace/metric deltas for boundary components the task's
        corruption filter discarded during this iteration's inbox fold."""
        rejected = self.task.components_rejected
        if rejected == self._rejected_seen:
            return
        delta = rejected - self._rejected_seen
        self._rejected_seen = rejected
        self.daemon._trace("component_rejected", task=self.task_id,
                           iteration=self.iteration, count=delta)
        self.telemetry.components_rejected += delta

    def _maybe_checkpoint(self) -> None:
        policy = self.policy
        if not policy.checkpoint_due(self.iteration, self.sim.now):
            return
        targets = policy.begin_save(self.task_id, self.iteration)
        if not targets:
            return
        backup = None
        for target_task in targets:
            stub = self.register.stub_of(target_task)
            if stub is None:
                continue  # guardian unassigned right now: replica skipped
            if backup is None:
                backup = Backup(
                    task_id=self.task_id,
                    iteration=self.iteration,
                    state=self.task.dump_state(),
                    app_id=self.app_id,
                    created_at=self.sim.now,
                )
            self.daemon.runtime.oneway(stub, "store_backup", backup)
            policy.on_checkpoint(backup.nbytes)
            self.daemon._trace("checkpoint_store", task=self.task_id,
                               iteration=self.iteration, guardian=target_task)
            self.telemetry.checkpoints_sent += 1
            self.telemetry.checkpoint_bytes += backup.nbytes

    def _report_convergence(self, distance: float) -> None:
        flipped = self.detector.update(distance)
        if not flipped:
            return
        self.daemon._trace("stability_flip", task=self.task_id,
                           stable=self.detector.stable)
        self.daemon.runtime.oneway(
            self.spawner_stub, "set_state",
            self.app_id, self.task_id, self.epoch, self.detector.stable,
        )
        if self.daemon.gossip is not None:
            # the epidemic path: the same bit as a versioned rumor, merged
            # by (epoch, flip count) so stale incarnations lose (§5.5
            # decentralized)
            self.daemon.gossip.set_rumor(
                ("stab", self.app_id, self.task_id),
                (self.epoch, self.detector.flips),
                self.detector.stable,
            )
        self.telemetry.convergence_messages += 1


class Daemon(RemoteObject):
    """One computing peer."""

    def __init__(
        self,
        network: Network,
        host: Host,
        daemon_id: str,
        superpeer_addresses: Sequence[Address],
        config: P2PConfig,
        rng: RngTree,
        wheel: TimerWheel,
        telemetry: RunTelemetry,
        checkpoint: CheckpointPolicy,
        failure_feed: FailureFeed,
        compute=None,
    ):
        if not superpeer_addresses:
            raise ConfigurationError("a Daemon needs at least one Super-Peer address")
        self.sim: Simulator = network.sim
        self.host = host
        self.daemon_id = daemon_id
        #: the bootstrap roster, held as given, not copied: a cluster hands
        #: every Daemon incarnation the same tuple
        self.superpeer_addresses = superpeer_addresses
        self.config = config
        #: cluster-wide :class:`repro.checkpoint.CheckpointPolicy`, bound per
        #: task runner
        self.checkpoint = checkpoint
        #: shared :class:`repro.checkpoint.FailureFeed` adaptive policies read
        self.failure_feed = failure_feed
        #: cluster-wide :class:`repro.compute.ComputePlane` (or None): the
        #: shared operators and solve memo, offered to every task it runs
        #: as ``TaskContext.compute``
        self.compute = compute
        self.rng = rng
        self.telemetry = telemetry
        #: created by the first :meth:`store_backup` (see :attr:`backup_store`)
        self._backup_store: BackupStore | None = None
        #: final solution fragments of halted apps (kept for collection)
        self.final_fragments: dict[str, Any] = {}
        self.runner: TaskRunner | None = None
        self._resyncing = False
        self.sp_stub: Stub | None = None
        self.registered = False
        self._retry_attempt = 0
        self.runtime = RmiRuntime(
            network, host, config.daemon_port, name=daemon_id,
            call_timeout=config.call_timeout,
        )
        self.stub = self.runtime.serve(self, DAEMON_OBJECT)
        self.gossip: GossipAgent | None = None
        if config.gossip_enabled:
            self.gossip = GossipAgent(
                runtime=self.runtime,
                peer_id=daemon_id,
                role="daemon",
                config=config,
                rng=rng.child("gossip"),
                seeds=superpeer_addresses,
            )
            # epidemic takeover path: leadership beats under a higher reign
            # re-point a computing runner even when the promoted standby's
            # direct announcement missed it (stale shadow)
            self.gossip.subscribe(("spawner",), self._on_spawner_rumor)
        # One bootstrap at boot, then every beat rides the cluster's shared
        # timer wheel (docs/scaling.md).  The reaffirm phase is hash-
        # staggered so the call-based beats don't all land on one slot.
        self._bootstrapping = False
        #: the registration sweep in flight: the candidates not tried yet,
        #: and the Super-Peer whose ``register_daemon`` answer is awaited
        self._sweep = None
        self._candidate: Stub | None = None
        self._beats = zlib.crc32(daemon_id.encode()) % WHEEL_REAFFIRM_EVERY
        #: cached constant heartbeat envelope (rebuilt when the owning
        #: Super-Peer changes): the idle beat is the hottest message in a
        #: swarm run, so it is prepared once and re-sent zero-alloc
        self._hb_prepared = None
        self._ensure_bootstrap()
        wheel.every(self._tick)

    # -- bootstrap (§5.1) ------------------------------------------------------
    #
    # Bootstrap spawns no process: the registration sweep and the
    # reaffirm are callbacks on the events of their own RMI calls.  Each
    # starts in an URGENT event at ``now`` (see :meth:`_soon`), and a
    # callback whose runtime died with its host does nothing.

    def _soon(self, fn, value=None) -> None:
        """Run ``fn(event)`` at ``now`` in an already-triggered URGENT event
        carrying ``value``: the slot a freshly spawned process's first step
        takes, so callbacks that replace processes keep the event order."""
        event = self.sim.event()
        event.callbacks.append(fn)
        event.succeed(value, priority=URGENT)

    def _ensure_bootstrap(self) -> None:
        """Start one registration sweep unless one is in flight."""
        if self._bootstrapping:
            return
        self._bootstrapping = True
        self._soon(self._begin_sweep)

    def _begin_sweep(self, _event: Event) -> None:
        """Try Super-Peer addresses in random order until one accepts us.

        With gossip on, the candidate set is the short seed
        contact list *plus* every Super-Peer the gossip overlay has
        surfaced since — §5.1's hardcoded list shrinks to one well-known
        entry point.  A fully failed sweep backs off exponentially with
        deterministic jitter (seeded per attempt), so a mass relocation
        after a Super-Peer outage does not hammer the survivors in
        lockstep."""
        self._sweep = iter(self.rng.child("bootstrap", self.host.fail_count)
                           .shuffled(self._superpeer_candidates()))
        self._try_next_superpeer()

    def _try_next_superpeer(self) -> None:
        addr = next(self._sweep, None)
        if addr is None:
            # every candidate failed: the sweep ends after the backoff
            self.sim.call_later(self._retry_backoff(), self._end_sweep)
            return
        if self.runner is not None:
            self._end_sweep()  # got a task while bootstrapping: stop
            return
        candidate = self._candidate = Stub(SUPERPEER_OBJECT, addr)
        self.runtime.call(
            candidate, "register_daemon", self.daemon_id, self.stub,
            timeout=self.config.call_timeout,
        ).callbacks.append(self._on_register_reply)

    def _on_register_reply(self, result: Event) -> None:
        if not self.runtime.alive:
            return
        candidate = self._candidate
        if not result.ok:
            if not isinstance(result.value, RemoteError):
                raise result.value
            if self.gossip is not None:
                self.gossip.store.mark_failed(candidate.address)
            self._try_next_superpeer()
            return
        ok = result.value
        if self.runner is not None:
            # assigned a task while this registration was in flight:
            # immediately take ourselves back out of the idle pool
            if ok:
                self.runtime.oneway(candidate, "unregister_daemon", self.daemon_id)
            self._end_sweep()
            return
        if not ok:
            self._try_next_superpeer()
            return
        self.sp_stub = candidate
        self.registered = True
        self._retry_attempt = 0
        self._trace("daemon_registered", superpeer=str(candidate.address))
        self._end_sweep()

    def _end_sweep(self) -> None:
        self._bootstrapping = False
        self._sweep = self._candidate = None

    def _superpeer_candidates(self) -> Sequence[Address]:
        """Seed contacts plus gossip-learned Super-Peer addresses."""
        if self.gossip is None:
            return self.superpeer_addresses
        merged = list(self.superpeer_addresses)
        for addr in self.gossip.known_addresses("superpeer"):
            if addr not in merged:
                merged.append(addr)
        return merged

    def _retry_backoff(self) -> float:
        """Bounded exponential backoff + deterministic jitter for one fully
        failed registration sweep."""
        attempt = self._retry_attempt
        self._retry_attempt += 1
        config = self.config
        delay = min(
            config.bootstrap_retry_delay * BOOTSTRAP_BACKOFF_FACTOR ** attempt,
            config.bootstrap_retry_max,
        )
        draw = self.rng.child("backoff", self.host.fail_count, attempt).uniform()
        delay *= 1.0 + BOOTSTRAP_RETRY_JITTER * draw
        self._trace("register_retry", attempt=attempt, delay=delay)
        return delay

    # -- heartbeats (§5.3, docs/scaling.md) -------------------------------------

    def _tick(self):
        """One timer-wheel beat to the current owner: the Spawner while
        computing, the Super-Peer while idle; an unregistered idle Daemon
        bootstraps instead.  Returning ``False`` deregisters this Daemon
        from the wheel (its host died; a fresh incarnation re-joins through
        the cluster reboot hook)."""
        if not self.runtime.alive:
            return False
        runner = self.runner
        if runner is not None:
            # our stub lets the Spawner fence a superseded epoch; the
            # stability bit and register version repair a lost set_state
            # flip or register broadcast (§5.3 + §5.5)
            self.runtime.oneway(
                runner.spawner_stub, "heartbeat_task",
                runner.app_id, runner.task_id, runner.epoch,
                self.daemon_id, self.stub,
                runner.detector.stable, runner.register.version,
            )
            return None
        if not self.registered:
            self._ensure_bootstrap()
            return None
        self._beats += 1
        if self._beats % WHEEL_REAFFIRM_EVERY == 0:
            # the call-based reaffirm: oneways to a dead Super-Peer vanish
            # silently, so every Nth beat must actually await an answer
            self._soon(self._reaffirm, self.sp_stub)
        else:
            prepared = self._hb_prepared
            if prepared is None or prepared.stub is not self.sp_stub:
                prepared = self.runtime.prepare_oneway(
                    self.sp_stub, "heartbeat_oneway", self.daemon_id, self.stub
                )
                self._hb_prepared = prepared
            self.runtime.send_prepared(prepared)
        return None

    def _reaffirm(self, event: Event) -> None:
        sp_stub = event.value
        self.runtime.call(
            sp_stub, "heartbeat", self.daemon_id,
            timeout=min(self.config.call_timeout, self.config.heartbeat_period),
        ).callbacks.append(partial(self._on_reaffirm_reply, sp_stub))

    def _on_reaffirm_reply(self, sp_stub: Stub, result: Event) -> None:
        if not self.runtime.alive:
            return
        if not result.ok:
            if not isinstance(result.value, RemoteError):
                raise result.value
            if self.sp_stub == sp_stub:
                self._trace("daemon_superpeer_lost", superpeer=str(sp_stub))
                self.registered = False
                self.sp_stub = None
            return
        if not result.value and self.runner is None and self.sp_stub == sp_stub:
            self.registered = False  # evicted: re-register next tick

    # -- remote interface ---------------------------------------------------------

    @remote
    def notify_unknown(self, sp_id: str) -> None:
        """Nack for a oneway idle heartbeat: the Super-Peer we just
        beat does not know us (eviction, or a rebooted replacement with an
        empty Register) — re-bootstrap on the next tick."""
        if self.runner is None:
            self._trace("daemon_unknown_nack", superpeer=sp_id)
            self.registered = False

    @remote
    def assign_task(
        self,
        app_id: str,
        task_factory,
        task_id: int,
        num_tasks: int,
        params: dict,
        register: ApplicationRegister,
        spawner_stub: Stub,
        epoch: int,
        restart: bool,
        convergence_threshold: float,
        stability_window: int,
    ) -> bool:
        """Start computing a task (§5.2).  Raises TaskError when busy —
        "a Daemon can only run a single Task at a given time" (§4.2)."""
        if self.runner is not None:
            raise TaskError(f"{self.daemon_id} is already running a task")
        task = task_factory()
        if not isinstance(task, Task):
            raise TaskError("task_factory must produce a repro.p2p.Task")
        if self.registered and self.sp_stub is not None:
            # The reservation already removed us from the reserving
            # Super-Peer, but a racing bootstrap/heartbeat may have
            # re-registered us elsewhere in the meantime: leave explicitly.
            self.runtime.oneway(self.sp_stub, "unregister_daemon", self.daemon_id)
        self.registered = False  # no longer owned by a Super-Peer
        self.sp_stub = None
        self.runner = TaskRunner(
            daemon=self,
            app_id=app_id,
            task=task,
            task_id=task_id,
            num_tasks=num_tasks,
            params=params,
            register=register,
            spawner_stub=spawner_stub,
            epoch=epoch,
            restart=restart,
            convergence_threshold=convergence_threshold,
            stability_window=stability_window,
            telemetry=self.telemetry,
        )
        self.host.spawn(self.runner.run(), label=f"{self.daemon_id}:task{task_id}")
        self._trace("assign", app=app_id, task=task_id, epoch=epoch,
                    restart=restart)
        return True

    @remote
    def adopt_spawner(self, app_id: str, reign: int, spawner_stub: Stub) -> bool:
        """A takeover announcement: re-point heartbeats and stability
        reports at a new Spawner incarnation.

        Reign fencing keeps exactly one leader authoritative: a lower (or
        equal) reign is a stale incumbent — e.g. the original primary
        resurrecting after a standby already took over — and is refused,
        so its announcements can never steal the computation back."""
        runner = self.runner
        if runner is None or runner.app_id != app_id:
            return False
        if reign <= runner.leader_reign:
            self._trace("adopt_refused", reign=reign,
                        current=runner.leader_reign)
            return False
        self._adopt(runner, reign, spawner_stub)
        return True

    def _on_spawner_rumor(self, key, version, value) -> None:
        """A ``("spawner", app)`` leadership beat merged by our gossip agent.

        The beat carries the leader's address, so a ghost runner — one whose
        Spawner died and whose slot the standby's shadow never recorded —
        still learns the new leader epidemically and re-attaches, instead of
        heartbeating a dead address forever."""
        runner = self.runner
        if runner is None or len(key) < 2 or key[1] != runner.app_id:
            return
        reign = int(version[0])
        if reign <= runner.leader_reign:
            return
        address = value.get("address") if isinstance(value, dict) else None
        if address is None:
            return
        self._adopt(runner, reign, Stub(SPAWNER_OBJECT, address), via="gossip")

    def _adopt(self, runner: TaskRunner, reign: int, spawner_stub: Stub,
               **via) -> None:
        """Follow the leader ``spawner_stub`` of ``reign`` (already checked
        to be newer than the runner's) and reconcile with it."""
        runner.leader_reign = reign
        runner.spawner_stub = spawner_stub
        self._trace("adopt_spawner", reign=reign,
                    spawner=str(spawner_stub.address), **via)
        # reconcile with the new leader's register (idempotent when its
        # shadow already knew us; reclaims our slot when it did not)
        self.host.spawn(self._reattach(runner, spawner_stub),
                        label=f"{self.daemon_id}:reattach")

    def _reattach(self, runner: TaskRunner, spawner_stub: Stub):
        """Reconcile this runner's slot with a newly adopted leader."""
        try:
            accepted = yield self.runtime.call(
                spawner_stub, "reattach_task", runner.app_id, runner.task_id,
                runner.epoch, self.daemon_id, self.stub,
                timeout=self.config.call_timeout,
            )
        except RemoteError:
            return  # leader unreachable: the next beat will retry adoption
        if self.runner is not runner or runner.halted:
            return
        if not accepted:
            # the leader's register outranks this incarnation (a replacement
            # already owns the slot)
            self._fence(runner, via="reattach")
        else:
            self._trace("reattach_ok", task=runner.task_id,
                        epoch=runner.epoch)

    @remote
    def fence(self, app_id: str, task_id: int, epoch: int) -> None:
        """The Spawner's answer to a stale-epoch heartbeat: ``epoch`` is the
        slot's current one.  Only a runner of that task at an *older* epoch
        stops; a plain ``halt`` would let a late fence kill a later,
        legitimate assignment of this Daemon."""
        runner = self.runner
        if (runner is not None and runner.app_id == app_id
                and runner.task_id == task_id and runner.epoch < epoch):
            self._fence(runner, via="heartbeat")

    def _fence(self, runner: TaskRunner, via: str) -> None:
        """Stop a superseded incarnation and rejoin the idle pool instead of
        burning the host on orphaned iterations.  Unlike :meth:`halt` it
        records no frontier: the slot's live owner holds the task's."""
        self._trace("fenced", task=runner.task_id, epoch=runner.epoch, via=via)
        runner.halted = True

    @remote
    def update_register(self, register: ApplicationRegister) -> bool:
        """Adopt a newer Application Register broadcast by the Spawner
        ("the recipient of all the messages ... is automatically updated",
        §5.3)."""
        if self.runner is None:
            return False
        if register.app_id != self.runner.app_id:
            return False
        self.runner.adopt_register(register)
        return True

    @remote
    def update_register_delta(self, delta) -> bool:
        """Apply an incremental register update (§8 broadcast improvement).

        Applies cleanly only when we are exactly at the delta's base
        version; on a gap (a missed update) we pull a full snapshot from
        the Spawner instead of guessing."""
        runner = self.runner
        if runner is None or delta.app_id != runner.app_id:
            return False
        current = runner.register.version
        if current >= delta.to_version:
            return True  # already at (or past) this update
        if current == delta.from_version:
            # copy-on-write: the register we hold may be the very object
            # another Daemon was sent (RMI passes arguments by value)
            by_id = {slot.task_id: slot for slot in delta.changes}
            runner.register = ApplicationRegister(
                app_id=runner.app_id, version=delta.to_version,
                slots=[by_id.get(slot.task_id, slot)
                       for slot in runner.register.slots])
            return True
        # version gap: resync with a full snapshot
        if not self._resyncing:
            self._resyncing = True
            self.host.spawn(self._resync_register(runner),
                            label=f"{self.daemon_id}:resync")
        return False

    def _resync_register(self, runner: TaskRunner):
        try:
            snapshot = yield self.runtime.call(
                runner.spawner_stub, "fetch_register", runner.app_id,
                timeout=self.config.call_timeout,
            )
        except RemoteError:
            snapshot = None
        finally:
            self._resyncing = False
        if snapshot is not None and self.runner is runner:
            runner.adopt_register(snapshot)
            self._trace("daemon_register_resynced", version=snapshot.version)

    @remote
    def receive_data(
        self, app_id: str, dst_task: int, src_task: int, epoch: int, payload: Any
    ) -> None:
        """Asynchronous dependency data from a neighbour task.  A sender
        older than our register's slot for ``src_task`` is a replaced
        incarnation still computing (a partition zombie): its boundaries,
        built on frozen inputs, would overwrite the live replacement's."""
        runner = self.runner
        if runner is None or runner.app_id != app_id or runner.task_id != dst_task:
            return  # stale message for a task we no longer run: lost
        if epoch < runner.register.slots[src_task].epoch:
            self._trace("zombie_data_dropped", task=dst_task, src=src_task,
                        epoch=epoch)
            self.telemetry.zombie_data_dropped += 1
            return
        runner.deliver(src_task, payload)

    @property
    def backup_store(self) -> BackupStore:
        """The neighbours' checkpoints this Daemon guards, created on first
        use: most Daemons of a swarm never guard one."""
        store = self._backup_store
        if store is None:
            store = self._backup_store = BackupStore(
                max_bytes=self.host.ram_mb * 1024 * 1024 * BACKUP_RAM_FRACTION
            )
        return store

    @remote
    def store_backup(self, backup: Backup) -> bool:
        """Guard a neighbour's checkpoint (§5.4)."""
        saved = self.backup_store.save(backup)
        self._trace("checkpoint_stored", task=backup.task_id,
                    iteration=backup.iteration, saved=saved)
        return saved

    @remote
    def backup_iteration(self, app_id: str, task_id: int) -> int | None:
        store = self._backup_store
        return store.iteration_of(app_id, task_id) if store is not None else None

    @remote
    def load_backup(self, app_id: str, task_id: int) -> Backup | None:
        store = self._backup_store
        backup = store.load(app_id, task_id) if store is not None else None
        self._trace("checkpoint_load", task=task_id, found=backup is not None)
        return backup

    @remote
    def halt(self, app_id: str) -> bool:
        """Stop computing (global convergence reached, §5.5)."""
        if self.runner is not None and self.runner.app_id == app_id:
            # keep the converged fragment so it can still be collected
            # after the runner has wound down
            self.final_fragments[app_id] = self.runner.task.solution_fragment()
            # the converged frontier: iterations *kept* for this task —
            # anything the app re-executed beyond the per-task frontier sum
            # is wasted work (re-iterated after recoveries)
            self.telemetry.frontier[self.runner.task_id] = (
                self.runner.iteration)
            self.runner.halted = True
        if self._backup_store is not None:
            self._backup_store.drop_app(app_id)
        return True

    @remote
    def fetch_solution(self, app_id: str) -> Any:
        """The owned fragment of the solution (collected by the harness)."""
        if self.runner is not None and self.runner.app_id == app_id:
            return self.runner.task.solution_fragment()
        return self.final_fragments.get(app_id)

    @remote
    def ping(self) -> bool:
        return True

    # -- internals ---------------------------------------------------------------

    def _runner_finished(self, runner: TaskRunner) -> None:
        if self.runner is runner:
            self.runner = None
            # back to the idle pool: the next wheel tick re-bootstraps

    def _trace(self, kind: str, **attrs) -> None:
        tr = self.sim.tracer
        if tr.enabled:
            tr.emit(self.sim.now, "p2p", self.daemon_id, kind, **attrs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "computing" if self.runner is not None else (
            "idle" if self.registered else "bootstrapping"
        )
        return f"<Daemon {self.daemon_id} {state}>"
