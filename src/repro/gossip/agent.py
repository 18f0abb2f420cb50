"""The gossip agent: discovery plus push-rumor dissemination rounds.

One :class:`GossipAgent` per entity, served under the well-known object
name ``"gossip"`` on the entity's *existing* :class:`~repro.rmi.RmiRuntime`
(Daemon, Super-Peer, Spawner and standby ports all double as gossip
endpoints — no extra sockets).  The protocol is the classic three-message
discovery plus anti-entropy push:

* ``hello(peer_id, role, address)`` — first contact / liveness announce;
* ``get_peers(max) -> PEERS_LIST`` — a bounded pull of the receiver's view;
* ``push(sender, peer_sample, rumors)`` — one dissemination round: a
  sample of the sender's membership view piggybacked on its rumor map.

Rumors are versioned key/value pairs merged by highest version (versions
are tuples, typically ``(epoch, seq)``, so stale incarnations lose by
construction — the epoch guard the distributed convergence detector needs).
Every stochastic choice draws from ``RngTree.child("gossip")`` descendants:
the round phase from one ``numpy`` draw per agent, and a round's fanout
targets, exchange sample and probe victim from three ``picks`` streams of
one child keyed by the round number — so a reseeded rerun reproduces the
exact overlay traffic bit for bit, and a round builds no ``Generator``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.errors import RemoteError
from repro.gossip.peers import PeerStore
from repro.net.address import Address
from repro.rmi import RemoteObject, RmiRuntime, Stub, oneway_size, remote
from repro.util.rng import RngTree
from repro.util.serialization import payload_size

if TYPE_CHECKING:  # repro.p2p imports this package: annotation only
    from repro.p2p.config import P2PConfig

__all__ = ["GOSSIP_OBJECT", "GossipAgent"]

#: name under which every gossip agent exports itself
GOSSIP_OBJECT = "gossip"

#: roles whose peers are *always* pushed to, on top of the random fanout —
#: control-plane sinks (the Spawner's epidemic convergence array, the
#: standby's failure detector) must hear every round, not eventually
PRIORITY_ROLES = ("spawner", "standby")

#: how deep a push argument sits in its envelope (message -> args -> argument)
#: and an entry of the peer sample one below it: the depths at which
#: ``measured_size`` walks them
_ARG_DEPTH = 2
_ENTRY_DEPTH = 3

#: random push targets per round (priority roles ride on top)
GOSSIP_FANOUT = 2
#: bounded peer-store capacity (the membership view)
GOSSIP_PEER_LIMIT = 32
#: membership entries piggybacked on each push (peer exchange)
GOSSIP_EXCHANGE = 4

#: the ``picks`` streams of a round's one RNG child
_FANOUT, _EXCHANGE, _PROBE = range(3)


class GossipAgent(RemoteObject):
    """Membership + rumor dissemination for one entity."""

    def __init__(
        self,
        runtime: RmiRuntime,
        peer_id: str,
        role: str,
        config: P2PConfig,
        rng: RngTree,
        seeds: list[Address] | None = None,
    ):
        self.runtime = runtime
        self.sim = runtime.sim
        self.host = runtime.host
        self.peer_id = peer_id
        self.role = role
        self.config = config
        self.rng = rng
        self.seeds = [a for a in (seeds or []) if a != runtime.address]
        self.address = runtime.address
        self.store = PeerStore(
            limit=GOSSIP_PEER_LIMIT,
            stale_after=config.gossip_stale_after,
        )
        #: versioned rumor map: key -> (version tuple, value)
        self.rumors: dict[Any, tuple[tuple, Any]] = {}
        #: what a push ships — (a copy of the rumor map, its payload size) —
        #: built on the first round after a merge and reused until the next
        self._rumor_snapshot: tuple[dict, int] | None = None
        self._subscribers: list[tuple[tuple, Callable]] = []
        self.pushes_sent = 0
        self.pushes_received = 0
        self.rumors_merged = 0
        self.hellos_received = 0
        self.probe_failures = 0
        #: the push envelope around an empty peer sample, without the rumor
        #: map: constant, because the agent's identity is
        self._push_base = oneway_size((peer_id, role, self.address, []))
        self.stub = runtime.serve(self, GOSSIP_OBJECT)
        self._round_no = 0
        self.host.spawn(self._rounds(), label=f"gossip:{peer_id}")

    # -- remote interface (HELLO / GET_PEERS / PEERS_LIST / PUSH) -------------

    @remote
    def hello(self, peer_id: str, role: str, address: Address) -> bool:
        """First-contact announce: admit the sender into the view."""
        self.hellos_received += 1
        self._learn(peer_id, role, address, heard=True)
        self._trace("hello", peer=peer_id, role=role)
        return True

    @remote
    def get_peers(self, max_n: int) -> list[tuple[str, str, Address]]:
        """PEERS_LIST: a bounded dump of this agent's membership view."""
        out = [r.entry() for r in self.store.ordered()[: max(0, int(max_n))]]
        self._trace("peers_list", served=len(out))
        return out

    @remote
    def push(
        self,
        sender_id: str,
        sender_role: str,
        sender_address: Address,
        peer_sample: list[tuple[str, str, Address]],
        rumors: dict,
    ) -> None:
        """One incoming dissemination round: merge membership + rumors."""
        self.pushes_received += 1
        self._learn(sender_id, sender_role, sender_address, heard=True)
        for pid, role, addr in peer_sample:
            self._learn(pid, role, addr, heard=False)
        merged = 0
        for key, (version, value) in rumors.items():
            merged += self._merge(key, tuple(version), value)
        self._trace("push_recv", sender=sender_id, merged=merged)

    @remote
    def ping(self) -> bool:
        return True

    # -- local API (the overlays: discovery, convergence, failover) -----------

    def known_addresses(self, role: str) -> list[Address]:
        """Gossip-learned addresses of a role (deterministic order)."""
        return self.store.addresses_of_role(role)

    def set_rumor(self, key: Any, version: tuple, value: Any) -> bool:
        """Publish (or refresh) a rumor locally; spreads on the next round.
        ``value`` is shipped by reference and sized once per version: hand
        over a fresh object per version and do not mutate it afterwards."""
        return bool(self._merge(key, tuple(version), value))

    def subscribe(self, key_prefix: tuple, callback: Callable) -> None:
        """``callback(key, version, value)`` on every merge whose key starts
        with ``key_prefix``."""
        self._subscribers.append((tuple(key_prefix), callback))

    # -- internals --------------------------------------------------------------

    def _learn(self, peer_id: str, role: str, address: Address,
               *, heard: bool) -> None:
        if address == self.address:
            return
        evicted = self.store.upsert(peer_id, role, address, self.sim.now,
                                    heard=heard)
        if evicted is not None:
            self._trace("evict", peer=evicted.peer_id, fails=evicted.fails)

    def _merge(self, key: Any, version: tuple, value: Any) -> int:
        held = self.rumors.get(key)
        if held is not None and held[0] >= version:
            return 0
        self.rumors[key] = (version, value)
        self._rumor_snapshot = None
        self.rumors_merged += 1
        for prefix, callback in self._subscribers:
            if key[: len(prefix)] == prefix:
                callback(key, version, value)
        return 1

    # -- the dissemination loop --------------------------------------------------

    def _rounds(self):
        """HELLO the seeds, pull one PEERS_LIST, then push-gossip forever."""
        for addr in self.seeds:
            self.runtime.oneway(Stub(GOSSIP_OBJECT, addr), "hello",
                                self.peer_id, self.role, self.address)
        # deterministic phase stagger: agents created in the same instant
        # must not all fire their rounds on the same timestep forever
        yield self.sim.timeout(
            self.rng.child("phase").unit() * self.config.gossip_period
        )
        if self.seeds:
            yield from self._pull(self.seeds[0])
        while self.runtime.alive:
            rng = self.rng.child("round", self._round_no)
            self._push_round(rng)
            self._probe_round(rng)
            self._round_no += 1
            yield self.sim.timeout(self.config.gossip_period)

    def _pull(self, addr: Address):
        """GET_PEERS against one contact (discovery bootstrap)."""
        try:
            entries = yield self.runtime.call(
                Stub(GOSSIP_OBJECT, addr), "get_peers",
                GOSSIP_PEER_LIMIT,
                timeout=self.config.call_timeout,
            )
        except RemoteError:
            self.store.mark_failed(addr)
            return
        for pid, role, address in entries:
            self._learn(pid, role, address, heard=False)
        self._trace("pull", contact=str(addr), learned=len(entries))

    def _push_round(self, rng: RngTree) -> None:
        store = self.store
        targets = store.sample(rng, GOSSIP_FANOUT, stream=_FANOUT)
        # priority sinks hear every round (bounded: one spawner + one standby)
        for role in PRIORITY_ROLES:
            for record in store.of_role(role):
                if record not in targets:
                    targets.append(record)
        if not targets:
            return
        # every target gets the same arguments, so the envelope is sized
        # once per round and from parts: the constant base, each sampled
        # record's memoized entry, the rumor map as last walked
        snapshot = self._rumor_snapshot
        if snapshot is None:
            rumors = dict(self.rumors)
            snapshot = self._rumor_snapshot = (
                rumors, payload_size(rumors, _ARG_DEPTH))
        rumors, size = snapshot
        size += self._push_base
        sample = []
        for record in store.sample(rng, GOSSIP_EXCHANGE, stream=_EXCHANGE):
            entry = record.entry()
            if not record.entry_bytes:
                record.entry_bytes = payload_size(entry, _ENTRY_DEPTH)
            size += record.entry_bytes
            sample.append(entry)
        args = (self.peer_id, self.role, self.address, sample, rumors)
        for record in targets:
            self.runtime.oneway(Stub(GOSSIP_OBJECT, record.address), "push",
                                *args, size=size)
            self.pushes_sent += 1
        self._trace("push", targets=len(targets), rumors=len(rumors))

    def _probe_round(self, rng: RngTree) -> None:
        """Ping one deterministic victim per round: the liveness feedback
        the eviction score's ``fails`` component runs on."""
        victims = self.store.sample(rng, 1, stream=_PROBE)
        if victims:
            self.host.spawn(self._probe(victims[0].address),
                            label=f"gossip:{self.peer_id}:probe")

    def _probe(self, address: Address):
        try:
            yield self.runtime.call(
                Stub(GOSSIP_OBJECT, address), "ping",
                timeout=min(self.config.call_timeout, self.config.gossip_period),
            )
        except RemoteError:
            self.store.mark_failed(address)
            self.probe_failures += 1
            self._trace("probe_fail", peer=str(address))
        else:
            self.store.mark_alive(address, self.sim.now)

    # -- observability ------------------------------------------------------------

    def _trace(self, kind: str, **attrs) -> None:
        tr = self.sim.tracer
        if tr.enabled:
            tr.emit(self.sim.now, "gossip", self.peer_id, kind, **attrs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<GossipAgent {self.peer_id} role={self.role} "
                f"peers={len(self.store)} rumors={len(self.rumors)}>")

