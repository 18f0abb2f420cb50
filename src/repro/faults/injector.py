"""The fault-plane executor: a DES process that carries out a FaultPlan.

The :class:`FaultInjector` executes *any* composition of typed
:class:`~repro.faults.actions.FaultAction`\\ s: daemon crashes (churn is a
plan of those, built by :func:`repro.churn.churn_plan`), Super-Peer
outages, network partitions, in-transit message corruption and correlated
rack failures.

Design invariants:

* **Determinism** — every open choice (random victim, corruption draws)
  comes from ``rng.child(...)`` with an index derived from the injector's
  own progress, never from wall clock or iteration order of a set.  The
  same plan + seed therefore replays bit-for-bit, which is what lets fault
  scenarios flow through the content-addressed run cache and the process
  pool without arms diverging.

* **Churn compatibility** — a :class:`~repro.faults.actions.DaemonCrash`
  victim is ``rng.child("victim").picks(len(alive), 1, <events so far>)``
  (a Super-Peer's likewise from ``"superpeer"``): one Generator-free draw
  per event, so a seeded churn run replays its victims.

* **Replayability** — everything the injector *actually did* (resolved
  victims, Super-Peer ids, group memberships) is recorded as
  :class:`~repro.faults.plan.FaultRecord`\\ s; :meth:`executed_plan` turns
  the record back into a pinned plan.
"""

from __future__ import annotations

import numpy as np

from repro.des import Interrupt, Simulator
from repro.errors import FaultError
from repro.faults.actions import (
    DaemonCrash,
    FaultAction,
    HealAction,
    MessageCorruption,
    PartitionAction,
    RackFailure,
    SpawnerCrash,
    SuperPeerCrash,
)
from repro.faults.plan import FaultPlan, FaultRecord
from repro.net.host import Host
from repro.rmi.invocation import OnewayMessage
from repro.util.rng import RngTree

__all__ = ["FaultInjector"]


class FaultInjector:
    """Executes a :class:`FaultPlan` against a running deployment.

    Parameters
    ----------
    sim:
        The simulation kernel.
    plan:
        The schedule of fault actions to carry out.
    rng:
        Seeded randomness for every open choice the plan leaves to fire
        time (victim picks, corruption draws).
    cluster:
        A :class:`~repro.p2p.cluster.Cluster`; required for Super-Peer,
        rack, Spawner, partition and corruption actions (its network is the
        fabric they act on), and the default source of hosts.
    hosts:
        Candidate victims for daemon crashes (default: the cluster's
        daemon hosts).
    entity:
        Entity tag of the ``faults/*`` trace events (``"churn"`` for the
        churn axis of a run).
    victim_filter:
        ``victim_filter(host) -> bool`` narrows random victim selection
        (e.g. to hosts currently computing); falls back to any alive host
        when nothing passes.
    """

    def __init__(
        self,
        sim: Simulator,
        plan: FaultPlan,
        *,
        rng: RngTree,
        cluster=None,
        hosts: list[Host] | None = None,
        entity: str = "faults",
        victim_filter=None,
    ):
        self.sim = sim
        self.plan = plan
        self.rng = rng
        self.cluster = cluster
        if hosts is None and cluster is not None:
            hosts = cluster.testbed.daemon_hosts
        self.hosts = list(hosts or ())
        self.network = cluster.network if cluster is not None else None
        self.entity = entity
        self.victim_filter = victim_filter
        self._validate(plan)

        self.executed: list[FaultRecord] = []
        self.skipped = 0       # actions with no viable target at fire time
        self.corrupted = 0     # messages corrupted across all windows
        #: active corruption windows: (action, rng child) tuples
        self._corruptions: list[tuple[MessageCorruption, RngTree]] = []
        self._corruptor_installed = False
        self.process = sim.process(self._run(), label="fault-injector")

    # -- validation -----------------------------------------------------------

    def _validate(self, plan: FaultPlan) -> None:
        for action in plan.actions:
            if isinstance(action, (SuperPeerCrash, RackFailure, SpawnerCrash,
                                   PartitionAction, HealAction,
                                   MessageCorruption)) and self.cluster is None:
                raise FaultError(
                    f"{action.kind!r} actions require a cluster to act on"
                )
            if isinstance(action, DaemonCrash) and not self.hosts:
                raise FaultError("daemon_crash actions require victim hosts")

    # -- bookkeeping -----------------------------------------------------------

    def _record(self, action: FaultAction, **detail) -> FaultRecord:
        rec = FaultRecord(time=self.sim.now, kind=action.kind, detail=detail)
        self.executed.append(rec)
        self._trace(action.kind, **detail)
        return rec

    def _skip(self, action: FaultAction, reason: str) -> None:
        self.skipped += 1
        self._trace("skip", action=action.kind, reason=reason)

    def _trace(self, kind: str, **attrs) -> None:
        tr = self.sim.tracer
        if tr.enabled:
            tr.emit(self.sim.now, "faults", self.entity, kind, **attrs)

    # -- main loop --------------------------------------------------------------

    def _run(self):
        try:
            for action in self.plan.schedule():
                delay = action.time - self.sim.now
                if delay > 0:
                    yield self.sim.timeout(delay)
                self._dispatch(action)
        except Interrupt:
            return  # cancelled (e.g. the run converged); stop injecting

    def cancel(self) -> None:
        """Stop executing further actions (in-flight recoveries complete)."""
        if self.process.is_alive and self.sim._active_process is not self.process:
            self.process.interrupt(cause="fault-plan-cancelled")

    def _dispatch(self, action: FaultAction) -> None:
        if isinstance(action, DaemonCrash):
            self._daemon_crash(action)
        elif isinstance(action, SuperPeerCrash):
            self._superpeer_crash(action)
        elif isinstance(action, PartitionAction):
            self._partition(action)
        elif isinstance(action, HealAction):
            self._heal(action)
        elif isinstance(action, MessageCorruption):
            self.sim.process(self._corruption_window(action),
                             label="fault-corruption")
        elif isinstance(action, RackFailure):
            self._rack_failure(action)
        elif isinstance(action, SpawnerCrash):
            self._spawner_crash(action)
        else:  # pragma: no cover - registry and dispatch kept in sync
            raise FaultError(f"no handler for fault action {action.kind!r}")

    # -- daemon crash (the churn axis) -----------------------------------------

    def _pick_victim(self, pinned: str | None) -> Host | None:
        if pinned is not None:
            host = next((h for h in self.hosts if h.name == pinned), None)
            return host if host is not None and host.online else None
        alive = [h for h in self.hosts if h.online]
        if not alive:
            return None
        if self.victim_filter is not None:
            preferred = [h for h in alive if self.victim_filter(h)]
            if preferred:
                alive = preferred
        # Index = events so far: the draw every seeded churn run was
        # recorded with (see "Churn compatibility" above).
        index = len(self.executed) + self.skipped
        return alive[self.rng.child("victim").picks(len(alive), 1, index)[0]]

    def _daemon_crash(self, action: DaemonCrash) -> None:
        victim = self._pick_victim(action.host)
        if victim is None:
            self._skip(action, "no alive victim")
            return
        victim.fail(cause="churn")
        self._record(action, host=victim.name, downtime=action.downtime)
        if action.downtime is not None:
            self.sim.process(self._recover_hosts([victim], action.downtime),
                             label=f"fault-recover:{victim.name}")

    def _recover_hosts(self, hosts: list[Host], downtime: float):
        yield self.sim.timeout(downtime)
        for host in hosts:
            if not host.online:
                host.recover()
                self._trace("recover", host=host.name)

    # -- super-peer crash -------------------------------------------------------

    def _superpeer_crash(self, action: SuperPeerCrash) -> None:
        alive = [sp for sp in self.cluster.superpeers if sp.host.online]
        if action.sp_id is not None:
            sp = next((s for s in alive if s.sp_id == action.sp_id), None)
        elif alive:
            index = len(self.executed) + self.skipped
            sp = alive[self.rng.child("superpeer").picks(len(alive), 1, index)[0]]
        else:
            sp = None
        if sp is None:
            self._skip(action, "no alive super-peer")
            return
        sp.host.fail(cause="superpeer_fault")
        self._record(action, sp_id=sp.sp_id, host=sp.host.name,
                     downtime=action.downtime)
        if action.downtime is not None:
            self.sim.process(self._reboot_superpeer(sp.host, action.downtime),
                             label=f"fault-sp-reboot:{sp.host.name}")

    def _reboot_superpeer(self, host: Host, downtime: float):
        yield self.sim.timeout(downtime)
        if not host.online:
            host.recover()
            sp = self.cluster.boot_superpeer(host)
            self._trace("superpeer_reboot", sp_id=sp.sp_id, host=host.name)

    # -- partitions --------------------------------------------------------------

    def _partition(self, action: PartitionAction) -> None:
        self.network.partition([list(g) for g in action.groups])
        self._record(action, groups=[list(g) for g in action.groups],
                     duration=action.duration)
        if action.duration is not None:
            self.sim.process(self._heal_later(action.duration),
                             label="fault-heal")

    def _heal_later(self, duration: float):
        yield self.sim.timeout(duration)
        self.network.heal_partition()
        self._trace("heal")

    def _heal(self, action: HealAction) -> None:
        self.network.heal_partition()
        self._record(action)

    # -- message corruption ------------------------------------------------------

    def _corruption_window(self, action: MessageCorruption):
        index = len(self.executed) + self.skipped
        window = (action, self.rng.child("corrupt", index))
        self._corruptions.append(window)
        self._sync_corruptor()
        self._record(action, rate=action.rate, magnitude=action.magnitude,
                     duration=action.duration)
        yield self.sim.timeout(action.duration)
        self._corruptions.remove(window)
        self._sync_corruptor()
        self._trace("corruption_off", corrupted=self.corrupted)

    def _sync_corruptor(self) -> None:
        want = bool(self._corruptions)
        if want and not self._corruptor_installed:
            self.network.corruptor = self._corrupt
            self._corruptor_installed = True
        elif not want and self._corruptor_installed:
            self.network.corruptor = None
            self._corruptor_installed = False

    def _corrupt(self, msg) -> None:
        """Network delivery hook: maybe perturb an asynchronous data payload.

        Only ``receive_data`` oneways are eligible — the model is silent
        corruption of boundary values in flight, not malformed control
        traffic.  Draws are sequential on the window's own rng child, so
        the corruption pattern is a pure function of (seed, delivery
        order), which the kernel makes deterministic.
        """
        payload = msg.payload
        if not isinstance(payload, OnewayMessage) or payload.method != "receive_data":
            return
        for action, rng in self._corruptions:
            if rng.uniform() >= action.rate:
                continue
            args = payload.args  # (app_id, dst_task, src_task, epoch, values)
            values = np.array(args[4], dtype=float, copy=True)
            if values.size == 0:
                continue
            idx = int(rng.integers(0, values.size))
            clean = float(values[idx])
            values[idx] = action.magnitude if clean == 0.0 else clean * action.magnitude
            payload.args = args[:4] + (values,)
            self.corrupted += 1
            self._trace("corrupt", msg_id=msg.msg_id, dst_task=args[1],
                        src_task=args[2], index=idx)

    # -- rack failure -------------------------------------------------------------

    def _rack_failure(self, action: RackFailure) -> None:
        victim = self._pick_victim(action.host)
        if victim is None:
            self._skip(action, "no alive victim")
            return
        doomed = [victim]
        daemon = self.cluster.daemons.get(victim.name)
        runner = daemon.runner if daemon is not None else None
        if runner is not None:
            for peer_task in runner.policy.backup_peers(runner.task_id):
                stub = runner.register.stub_of(peer_task)
                if stub is None:
                    continue
                guardian = self.network.hosts.get(stub.address.host)
                if (
                    guardian is not None
                    and guardian.online
                    and guardian not in doomed
                ):
                    doomed.append(guardian)
        for host in doomed:
            host.fail(cause="rack_fault")
        self._record(action, hosts=[h.name for h in doomed],
                     downtime=action.downtime)
        if action.downtime is not None:
            self.sim.process(self._recover_hosts(doomed, action.downtime),
                             label=f"fault-rack-recover:{victim.name}")

    # -- spawner crash (the §4.2 stable entity; docs/gossip.md failover) ---------

    def _spawner_crash(self, action: SpawnerCrash) -> None:
        host = self.cluster.testbed.spawner_host
        if host is None or not host.online:
            self._skip(action, "no alive spawner host")
            return
        host.fail(cause="spawner_fault")
        self._record(action, host=host.name)

    # -- replay -------------------------------------------------------------------

    def executed_plan(self) -> FaultPlan:
        """The plan that would replay what actually happened.

        Victims and Super-Peers are pinned to the recorded choices; rack
        failures become simultaneous pinned :class:`DaemonCrash`\\ es (a
        replay does not need the correlation to be re-derived).  Corruption
        windows keep their stochastic form — the draws replay from the
        seed, not the record.
        """
        actions: list[FaultAction] = []
        for rec in self.executed:
            if rec.kind == "daemon_crash":
                actions.append(DaemonCrash(time=rec.time, host=rec.detail["host"],
                                           downtime=rec.detail.get("downtime")))
            elif rec.kind == "superpeer_crash":
                actions.append(SuperPeerCrash(time=rec.time,
                                              sp_id=rec.detail["sp_id"],
                                              downtime=rec.detail.get("downtime")))
            elif rec.kind == "partition":
                actions.append(PartitionAction(
                    time=rec.time,
                    groups=tuple(tuple(g) for g in rec.detail["groups"]),
                    duration=rec.detail.get("duration")))
            elif rec.kind == "heal":
                actions.append(HealAction(time=rec.time))
            elif rec.kind == "corruption":
                actions.append(MessageCorruption(
                    time=rec.time, duration=rec.detail["duration"],
                    rate=rec.detail["rate"], magnitude=rec.detail["magnitude"]))
            elif rec.kind == "rack_failure":
                for name in rec.detail["hosts"]:
                    actions.append(DaemonCrash(time=rec.time, host=name,
                                               downtime=rec.detail.get("downtime")))
            elif rec.kind == "spawner_crash":
                actions.append(SpawnerCrash(time=rec.time))
        return FaultPlan(actions=tuple(actions),
                         name=f"{self.plan.name or 'plan'}@executed")
