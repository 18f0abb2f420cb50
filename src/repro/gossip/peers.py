"""A bounded peer store with deterministic eviction scoring.

The store is the agent's whole view of the overlay: at most ``limit``
entries, each remembering a peer's id, role, address, the last time it was
heard from and how many consecutive probes to it have failed.  When a
newcomer arrives at a full store the *worst* incumbent is scored by the
tuple ``(consecutive failures, staleness, address)`` — largest first — and
evicted only if it has actually misbehaved (failed a probe, or gone stale
past ``stale_after``); a store full of healthy peers rejects the newcomer
instead.  Scoring never draws randomness, so two runs with the same message
history hold bit-identical views.

Bookkeeping per learned entry is O(1) (docs/gossip.md, "Cost model"): the
address-ordered view is rebuilt only when membership changes, a full
healthy store rejects a newcomer without looking at a single record, and a
sample of ``k`` records costs ``k`` keyed picks into that view.  The
scan-based store this replaces is the differential oracle in
``tests/oracles/peerstore_reference.py``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from operator import attrgetter

from repro.net.address import Address
from repro.util.rng import RngTree

__all__ = ["PeerRecord", "PeerStore"]

_KEY = attrgetter("key")
_FAILS = attrgetter("fails")
_LAST_SEEN = attrgetter("last_seen")


@dataclass(slots=True)
class PeerRecord:
    """One membership entry."""

    peer_id: str
    role: str
    address: Address
    last_seen: float
    fails: int = 0
    #: ``"host:port"``: the view's sort key and the eviction tie-break,
    #: formatted once per record and interned, so the many stores that know
    #: one address share one string
    key: str = field(init=False, repr=False, compare=False)
    #: what :meth:`entry` weighs inside a push envelope — the sender's memo
    #: (0 = not measured); cleared when the id or role changes
    entry_bytes: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.key = sys.intern(str(self.address))

    def entry(self) -> tuple[str, str, Address]:
        """The wire form shipped in PEERS_LIST replies and push samples."""
        return (self.peer_id, self.role, self.address)


class PeerStore:
    """Bounded membership view keyed by address."""

    def __init__(self, limit: int, stale_after: float):
        self.limit = limit
        self.stale_after = stale_after
        self._peers: dict[Address, PeerRecord] = {}
        #: the records in ``"host:port"`` order; None after a membership
        #: change, rebuilt on the next read
        self._ordered: list[PeerRecord] | None = None
        #: role -> the records holding it, by address
        self._by_role: dict[str, dict[Address, PeerRecord]] = {}
        #: how many records have ``fails > 0``
        self._failing = 0
        #: a lower bound on every record's ``last_seen``: every stamp a
        #: record is given is folded in, and a departure can only raise the
        #: true minimum, so the bound can go stale (too low) but not wrong
        self._oldest_seen = float("inf")
        self.evictions = 0
        self.rejections = 0

    def __len__(self) -> int:
        return len(self._peers)

    def __contains__(self, address: Address) -> bool:
        return address in self._peers

    def records(self) -> list[PeerRecord]:
        return list(self._peers.values())

    def ordered(self) -> list[PeerRecord]:
        """The records sorted by ``"host:port"`` (the string order, not
        ``Address``'s tuple order).  The store's own list: do not mutate."""
        ordered = self._ordered
        if ordered is None:
            ordered = self._ordered = sorted(self._peers.values(), key=_KEY)
        return ordered

    def get(self, address: Address) -> PeerRecord | None:
        return self._peers.get(address)

    # -- upserts ---------------------------------------------------------------

    def upsert(self, peer_id: str, role: str, address: Address, now: float,
               *, heard: bool) -> PeerRecord | None:
        """Learn (or refresh) a peer; returns the evicted record, if any.

        ``heard=True`` means the information is first-hand (a message from
        the peer itself): the record's liveness clock resets and its probe
        failures clear.  ``heard=False`` is hearsay from a peer sample:
        a known peer is *not* refreshed (hearsay must never keep a dead
        peer looking alive), only unknown peers are admitted.
        """
        record = self._peers.get(address)
        if record is not None:
            if record.peer_id != peer_id or record.role != role:
                if record.role != role:
                    del self._by_role[record.role][address]
                    self._by_role.setdefault(role, {})[address] = record
                record.peer_id = peer_id
                record.role = role
                record.entry_bytes = 0
            if heard:
                self._refresh(record, now)
            return None
        evicted = None
        if len(self._peers) >= self.limit:
            evicted = self._evict_candidate(now)
            if evicted is None:
                self.rejections += 1
                return None
            del self._peers[evicted.address]
            del self._by_role[evicted.role][evicted.address]
            if evicted.fails:
                self._failing -= 1
            self.evictions += 1
        record = PeerRecord(
            peer_id=peer_id, role=role, address=address,
            last_seen=now if heard else now - self.stale_after / 2,
        )
        self._peers[address] = record
        self._by_role.setdefault(role, {})[address] = record
        self._ordered = None
        if record.last_seen < self._oldest_seen:
            self._oldest_seen = record.last_seen
        return evicted

    def _evict_candidate(self, now: float) -> PeerRecord | None:
        """The worst incumbent, by ``(fails, staleness, address)`` — or
        None when every incumbent is healthy (newcomer rejected)."""
        if not self._failing and now - self._oldest_seen <= self.stale_after:
            return None  # nobody failing, nobody can be stale: no scan
        # the lexicographic maximum, one component at a time
        tied = self._peers.values()
        failing = self._failing
        if failing:
            most = max(map(_FAILS, tied))
            tied = [r for r in tied if r.fails == most]
        oldest = min(map(_LAST_SEEN, tied))
        staleness = now - oldest
        if not failing:
            self._oldest_seen = oldest  # the exact minimum: tighten the bound
            if staleness <= self.stale_after:
                return None
        # records whose staleness rounds to the same float tie on the key
        return max((r for r in tied if now - r.last_seen == staleness),
                   key=_KEY)

    # -- liveness feedback -----------------------------------------------------

    def _refresh(self, record: PeerRecord, now: float) -> None:
        record.last_seen = now
        if now < self._oldest_seen:
            self._oldest_seen = now
        if record.fails:
            record.fails = 0
            self._failing -= 1

    def mark_alive(self, address: Address, now: float) -> None:
        record = self._peers.get(address)
        if record is not None:
            self._refresh(record, now)

    def mark_failed(self, address: Address) -> None:
        record = self._peers.get(address)
        if record is not None:
            if not record.fails:
                self._failing += 1
            record.fails += 1

    # -- deterministic sampling ------------------------------------------------

    def sample(self, rng: RngTree, k: int, stream: int) -> list[PeerRecord]:
        """Up to ``k`` records: a uniform subset in a uniform order, drawn
        by ``rng.picks`` (``stream`` selects one of the node's draws).

        The picks index the address-ordered view, so the draw is a pure
        function of (seed, membership) — dict insertion order never leaks
        into the overlay's fanout pattern.
        """
        candidates = self.ordered()
        if len(candidates) <= k:
            return list(candidates)
        return [candidates[i] for i in rng.picks(len(candidates), k, stream)]

    def of_role(self, role: str) -> list[PeerRecord]:
        """The records holding ``role``, in ``"host:port"`` order."""
        held = self._by_role.get(role)
        return sorted(held.values(), key=_KEY) if held else []

    def addresses_of_role(self, role: str) -> list[Address]:
        """Known addresses for a role, sorted for deterministic iteration."""
        return [r.address for r in self.of_role(role)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PeerStore {len(self._peers)}/{self.limit}>"
