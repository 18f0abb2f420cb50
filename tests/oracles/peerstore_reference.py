"""Reference oracle: the scan-based peer store, verbatim as it stood in
``repro/gossip/peers.py`` before the indexed store replaced it.  Every
decision rescans the whole view, so it is obviously right and too slow to
ship; ``tests/test_gossip_hotpath.py`` drives both stores in lockstep.
One line moved since: ``sample`` draws with ``RngTree.picks`` as the shipped
store does (it used to ``shuffled()`` the candidates), so the lockstep test
compares stores, not RNGs — the draw has its own oracle,
``tests/oracles/picks_reference.py``.

Its original docstring:

A bounded peer store with deterministic eviction scoring.

The store is the agent's whole view of the overlay: at most ``limit``
entries, each remembering a peer's id, role, address, the last time it was
heard from and how many consecutive probes to it have failed.  When a
newcomer arrives at a full store the *worst* incumbent is scored by the
tuple ``(consecutive failures, staleness, address)`` — largest first — and
evicted only if it has actually misbehaved (failed a probe, or gone stale
past ``stale_after``); a store full of healthy peers rejects the newcomer
instead.  Scoring never draws randomness, so two runs with the same message
history hold bit-identical views.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.address import Address
from repro.util.rng import RngTree

__all__ = ["PeerRecord", "PeerStore"]


@dataclass
class PeerRecord:
    """One membership entry."""

    peer_id: str
    role: str
    address: Address
    last_seen: float
    fails: int = 0

    def entry(self) -> tuple[str, str, Address]:
        """The wire form shipped in PEERS_LIST replies and push samples."""
        return (self.peer_id, self.role, self.address)


class PeerStore:
    """Bounded membership view keyed by address."""

    def __init__(self, limit: int, stale_after: float):
        self.limit = limit
        self.stale_after = stale_after
        self._peers: dict[Address, PeerRecord] = {}
        self.evictions = 0
        self.rejections = 0

    def __len__(self) -> int:
        return len(self._peers)

    def __contains__(self, address: Address) -> bool:
        return address in self._peers

    def records(self) -> list[PeerRecord]:
        return list(self._peers.values())

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
            record.peer_id = peer_id
            record.role = role
            if heard:
                record.last_seen = now
                record.fails = 0
            return None
        evicted = None
        if len(self._peers) >= self.limit:
            evicted = self._evict_candidate(now)
            if evicted is None:
                self.rejections += 1
                return None
            del self._peers[evicted.address]
            self.evictions += 1
        self._peers[address] = PeerRecord(
            peer_id=peer_id, role=role, address=address,
            last_seen=now if heard else now - self.stale_after / 2,
        )
        return evicted

    def _evict_candidate(self, now: float) -> PeerRecord | None:
        """The worst incumbent, by ``(fails, staleness, address)`` — or
        None when every incumbent is healthy (newcomer rejected)."""
        worst = max(
            self._peers.values(),
            key=lambda r: (r.fails, now - r.last_seen, str(r.address)),
        )
        if worst.fails > 0 or (now - worst.last_seen) > self.stale_after:
            return worst
        return None

    # -- liveness feedback -----------------------------------------------------

    def mark_alive(self, address: Address, now: float) -> None:
        record = self._peers.get(address)
        if record is not None:
            record.last_seen = now
            record.fails = 0

    def mark_failed(self, address: Address) -> None:
        record = self._peers.get(address)
        if record is not None:
            record.fails += 1

    # -- deterministic sampling ------------------------------------------------

    def sample(self, rng: RngTree, k: int, exclude: Address | None = None,
               stream: int = 0) -> list[PeerRecord]:
        """Up to ``k`` records in a deterministic shuffled order.

        Candidates are sorted by address before drawing, so the draw is
        a pure function of (seed, membership) — dict insertion order never
        leaks into the overlay's fanout pattern.
        """
        candidates = sorted(
            (r for r in self._peers.values() if r.address != exclude),
            key=lambda r: str(r.address),
        )
        if not candidates:
            return []
        if len(candidates) <= k:
            return candidates
        return [candidates[i] for i in rng.picks(len(candidates), k, stream)]

    def addresses_of_role(self, role: str) -> list[Address]:
        """Known addresses for a role, sorted for deterministic iteration."""
        return sorted(
            (r.address for r in self._peers.values() if r.role == role),
            key=str,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PeerStore {len(self._peers)}/{self.limit}>"
