"""Deterministic random-number management.

Every stochastic decision in the library (host speeds, link latencies, churn
schedules, the random Super-Peer pick during bootstrap, ...) draws from a
:class:`RngTree`: a hierarchy of independent ``numpy.random.Generator``
streams derived from one root seed.  Two runs with the same root seed make
exactly the same decisions, which is what lets the benchmark harness replay
the paper's experiments reproducibly.

The derivation is stable: ``tree.child("churn")`` always yields the same
stream for the same root seed, regardless of the order in which other
children were created.

A node offers two kinds of draw.  The ``numpy`` ones (``generator``,
``uniform``, ``integers``) build a ``Generator`` on first use — about
20 µs — and are stateful: right for a long-lived node drawn from many
times (link jitter, message loss).
:meth:`RngTree.picks` (distinct indices) and :meth:`RngTree.unit` (a float
in ``[0, 1)``) are stateless, Generator-free, about 1 µs: a node drawn
from once per decision uses them, the decision's index as ``stream``.
``unit(s)`` is the first word ``picks(..., s)`` consumes, so one node
never serves both on the same stream.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "RngTree"]

_MASK64 = (1 << 64) - 1
#: SplitMix64's increment (the 64-bit golden ratio); an odd multiple of it
#: offsets each ``picks`` stream's starting counter
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(root_seed: int, *path: str | int) -> int:
    """Derive a 63-bit child seed from ``root_seed`` and a path of labels.

    Stable across processes and Python versions (uses SHA-256, not ``hash``).
    """
    h = hashlib.sha256()
    h.update(str(int(root_seed)).encode())
    for part in path:
        h.update(b"/")
        h.update(str(part).encode())
    return int.from_bytes(h.digest()[:8], "little") & (2**63 - 1)


class RngTree:
    """A node in a deterministic tree of random generators.

    Parameters
    ----------
    seed:
        Root seed for this node.
    path:
        Human-readable label path (used in ``repr`` and error messages).
    """

    __slots__ = ("seed", "path", "_gen")

    def __init__(self, seed: int, path: tuple[str | int, ...] = ()):
        self.seed = int(seed)
        self.path = path
        self._gen: np.random.Generator | None = None

    @property
    def generator(self) -> np.random.Generator:
        """The ``numpy`` generator for this node (created lazily)."""
        if self._gen is None:
            self._gen = np.random.default_rng(self.seed)
        return self._gen

    def child(self, *labels: str | int) -> "RngTree":
        """Return the child node reached by ``labels``.

        Children are independent of the parent's own draw state: deriving a
        child never consumes randomness from this node.
        """
        if not labels:
            raise ValueError("child() requires at least one label")
        return RngTree(derive_seed(self.seed, *labels), self.path + tuple(labels))

    # -- convenience draws -------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self.generator.uniform(low, high))

    def integers(self, low: int, high: int) -> int:
        """Draw one integer in ``[low, high)``."""
        return int(self.generator.integers(low, high))

    def picks(self, m: int, k: int, stream: int = 0) -> list[int]:
        """``k`` distinct indices of ``range(m)``: a uniform ``k``-subset in
        uniform order, from no ``numpy`` object.

        A partial Fisher–Yates shuffle (the ``k`` swaps a full one would do
        first, over a dict of the displaced positions) driven by a SplitMix64
        counter stream started at ``seed ^ (odd constant of stream)``.
        Stateless: a pure function of (seed, ``m``, ``k``, ``stream``), so
        one node yields independent draws under different ``stream``
        numbers without deriving a child for each.
        """
        if not 0 <= k <= m:
            raise ValueError(f"cannot pick {k} distinct indices of range({m})")
        x = self.seed ^ ((2 * stream + 1) * _GOLDEN & _MASK64)
        displaced: dict[int, int] = {}
        out = []
        for i in range(k):
            x = (x + _GOLDEN) & _MASK64
            z = x
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            z ^= z >> 31
            # multiply-shift maps the 64-bit word onto [i, m) without the
            # low-bit bias of a modulo
            j = i + (z * (m - i) >> 64)
            out.append(displaced.get(j, j))
            displaced[j] = displaced.get(i, i)
        return out

    def unit(self, stream: int = 0) -> float:
        """One float in ``[0, 1)`` from no ``numpy`` object: the top 53 bits
        of the first SplitMix64 word of ``stream`` (the word ``picks`` on
        that stream starts with).  Stateless, like :meth:`picks`."""
        z = (self.seed ^ ((2 * stream + 1) * _GOLDEN & _MASK64)) + _GOLDEN
        z &= _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return ((z ^ (z >> 31)) >> 11) * 2.0 ** -53

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RngTree(seed={self.seed}, path={'/'.join(map(str, self.path))!r})"
