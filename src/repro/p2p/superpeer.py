"""The Super-Peer: entry point and Daemon index (paper §5.1–§5.3).

A Super-Peer keeps a **Register** of the RMI stubs of the idle Daemons
connected to it, monitors their heartbeats with a timeout protocol, answers
reservation requests from Spawners, and forwards unmet demand to the other
Super-Peers it is linked to (the hybrid-topology forwarding of Fig. 2/4).

Swarm scale (``config.superpeer_tiers >= 2``, docs/scaling.md) arranges
Super-Peers into a hierarchy: tier-0 *leaves* keep Daemon Registers exactly
as above, while interior Super-Peers index only their child Super-Peers'
**liveness summaries** (``sp_id``, stub, idle count, last heard) — aggregated
liveness, not per-peer beats, is all that crosses a tier boundary.
Reservation demand forwards down to the idlest subtree, up to the parent,
and sideways across the top-tier mesh, with a visited set preventing loops;
a child whose summaries go stale is evicted together with its whole subtree's
idle count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.des import Simulator
from repro.errors import RemoteError
from repro.net.host import Host
from repro.net.network import Network
from repro.p2p.config import P2PConfig
from repro.rmi import RemoteObject, RmiRuntime, Stub, remote

__all__ = ["SuperPeer", "DaemonRecord", "ChildSummary"]

#: name under which every Super-Peer exports itself
SUPERPEER_OBJECT = "superpeer"


@dataclass(slots=True)
class DaemonRecord:
    """One Register entry (one per registered Daemon per leaf)."""

    daemon_id: str
    stub: Stub
    last_seen: float


@dataclass
class ChildSummary:
    """An interior Super-Peer's view of one child subtree: the aggregated
    liveness summary that replaces per-Daemon bookkeeping above tier 0."""

    sp_id: str
    stub: Stub
    idle: int
    last_seen: float


class SuperPeer(RemoteObject):
    """One Super-Peer entity."""

    def __init__(
        self,
        network: Network,
        host: Host,
        sp_id: str,
        config: P2PConfig,
        tier: int = 0,
    ):
        self.sim: Simulator = network.sim
        self.network = network
        self.host = host
        self.sp_id = sp_id
        self.config = config
        self.tier = tier
        self.register: dict[str, DaemonRecord] = {}
        self.neighbour_stubs: list[Stub] = []
        #: hierarchy wiring (empty/None in the flat depth-1 topology)
        self.parent_stub: Stub | None = None
        self.child_summaries: dict[str, ChildSummary] = {}
        self.evictions = 0
        self.subtree_evictions = 0
        self.forwarded_requests = 0
        self.summaries_sent = 0
        self.runtime = RmiRuntime(
            network, host, config.superpeer_port, name=sp_id,
            call_timeout=config.call_timeout,
        )
        self.stub = self.runtime.serve(self, SUPERPEER_OBJECT)
        host.spawn(self._monitor(), label=f"{sp_id}:monitor")

    # -- wiring ------------------------------------------------------------

    def link(self, neighbours: list[Stub]) -> None:
        """Connect this Super-Peer to the others (they "are linked
        together", §5.1).  Self is filtered out defensively."""
        self.neighbour_stubs = [s for s in neighbours if s.address != self.stub.address]

    def set_parent(self, parent: Stub | None) -> None:
        """Attach this Super-Peer under an interior Super-Peer one tier up."""
        self.parent_stub = parent

    def adopt_child(self, sp_id: str, stub: Stub, idle: int = 0) -> None:
        """Seed a child subtree's summary (cluster build / recovery);
        the child's periodic :meth:`tier_summary` oneways keep it fresh."""
        self.child_summaries[sp_id] = ChildSummary(sp_id, stub, idle, self.sim.now)

    def subtree_idle(self) -> int:
        """Idle Daemons in this Super-Peer's whole subtree (register for a
        leaf, last-heard child summaries above)."""
        return len(self.register) + sum(
            c.idle for c in self.child_summaries.values()
        )

    # -- remote interface ------------------------------------------------------

    @remote
    def register_daemon(self, daemon_id: str, stub: Stub) -> bool:
        """A Daemon joins (bootstrap, §5.1) or re-joins after eviction."""
        self.register[daemon_id] = DaemonRecord(daemon_id, stub, self.sim.now)
        self._trace("register", daemon=daemon_id)
        return True

    @remote
    def unregister_daemon(self, daemon_id: str) -> bool:
        """Graceful departure (not used by failures — those time out)."""
        removed = self.register.pop(daemon_id, None) is not None
        if removed:
            self._trace("unregister", daemon=daemon_id)
        return removed

    @remote
    def heartbeat(self, daemon_id: str) -> bool:
        """Periodic liveness signal; False tells the Daemon it is unknown
        here (evicted or talking to a rebooted Super-Peer) and must
        re-register."""
        record = self.register.get(daemon_id)
        self._trace("heartbeat", daemon=daemon_id, known=record is not None)
        if record is None:
            return False
        record.last_seen = self.sim.now
        return True

    @remote
    def heartbeat_oneway(self, daemon_id: str, stub: Stub) -> None:
        """Wheel-mode liveness beat (docs/scaling.md).

        Fire-and-forget: no reply event, no caller watchdog.  An unknown
        sender (evicted, or beating a rebooted Super-Peer) gets a oneway
        ``notify_unknown`` nack telling it to re-bootstrap — the pull
        answer the call-based :meth:`heartbeat` returns as ``False``."""
        record = self.register.get(daemon_id)
        if record is None:
            self._trace("heartbeat_nack", daemon=daemon_id)
            self.runtime.oneway(stub, "notify_unknown", self.sp_id)
            return
        record.last_seen = self.sim.now

    @remote
    def tier_summary(self, sp_id: str, stub: Stub, idle: int) -> None:
        """Aggregated liveness from a child Super-Peer: its subtree's idle
        count, refreshed every monitor period.  This summary — not the
        per-Daemon beats behind it — is all that crosses a tier boundary."""
        self.child_summaries[sp_id] = ChildSummary(sp_id, stub, idle, self.sim.now)

    @remote
    def reserve_local(self, count: int) -> list[tuple[str, Stub]]:
        """Hand over up to ``count`` registered Daemons (removing them from
        the Register: reserved peers are "no longer registered to the
        Super-Peers", §5.2)."""
        if count <= 0:
            return []
        picked: list[tuple[str, Stub]] = []
        for daemon_id in sorted(self.register)[:count]:
            record = self.register.pop(daemon_id)
            picked.append((record.daemon_id, record.stub))
        if picked:
            self._trace("reserve", count=len(picked))
        return picked

    @remote
    def reserve(self, count: int, visited: tuple[str, ...] = ()):
        """Reserve ``count`` Daemons, forwarding unmet demand to the other
        Super-Peers (Fig. 2: SP1 reserves D3 on SP2).

        Forwarding order: the local Register first, then *down* into child
        subtrees (idlest first, per their last summaries), then *up* to the
        parent tier, then sideways to linked neighbours — in the flat
        depth-1 topology only the neighbour leg exists, which is exactly
        the paper's behaviour.  ``visited`` carries the addresses of the
        Super-Peers already consulted so a request never loops.  Returns a
        (possibly short) list of ``(daemon_id, stub)`` pairs.
        """
        picked = self.reserve_local(count)
        visited = tuple(visited) + (str(self.stub.address),)
        targets: list[Stub] = [
            c.stub
            for c in sorted(self.child_summaries.values(),
                            key=lambda c: (-c.idle, c.sp_id))
            if c.idle > 0
        ]
        if self.parent_stub is not None:
            targets.append(self.parent_stub)
        targets.extend(self.neighbour_stubs)
        # a forwarded request may itself traverse a whole tier chain
        forward_timeout = self.config.call_timeout * max(
            1, self.config.superpeer_tiers
        )
        for nb in targets:
            if len(picked) >= count:
                break
            if str(nb.address) in visited:
                continue  # already consulted on this request's path
            need = count - len(picked)
            self.forwarded_requests += 1
            try:
                extra = yield self.runtime.call(
                    nb, "reserve", need, visited, timeout=forward_timeout
                )
            except RemoteError:
                continue  # that Super-Peer is down; try the next one
            picked.extend(extra)
            visited = visited + (str(nb.address),)
        return picked

    @remote
    def registered_count(self) -> int:
        return len(self.register)

    @remote
    def ping(self) -> bool:
        return True

    # -- heartbeat monitoring (the "timeout protocol", §5.3) --------------------

    def _monitor(self):
        while True:
            yield self.sim.timeout(self.config.monitor_period)
            deadline = self.sim.now - self.config.heartbeat_timeout
            stale = [d for d, rec in self.register.items() if rec.last_seen < deadline]
            for daemon_id in stale:
                del self.register[daemon_id]
                self.evictions += 1
                self._trace("evict", daemon=daemon_id)
            if self.child_summaries:
                # a child gone silent takes its WHOLE subtree's idle count
                # with it; the Daemons below re-register via their own
                # heartbeat nacks / timeouts
                dead = [sid for sid, c in self.child_summaries.items()
                        if c.last_seen < deadline]
                for sid in dead:
                    lost = self.child_summaries.pop(sid)
                    self.subtree_evictions += 1
                    self._trace("evict_subtree", child=sid, idle_lost=lost.idle)
            if self.parent_stub is not None:
                self.summaries_sent += 1
                self.runtime.oneway(
                    self.parent_stub, "tier_summary",
                    self.sp_id, self.stub, self.subtree_idle(),
                )

    def _trace(self, kind: str, **attrs) -> None:
        tr = self.sim.tracer
        if tr.enabled:
            tr.emit(self.sim.now, "p2p", self.sp_id, kind, **attrs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<SuperPeer {self.sp_id} tier={self.tier} "
                f"register={len(self.register)} "
                f"children={len(self.child_summaries)}>")
