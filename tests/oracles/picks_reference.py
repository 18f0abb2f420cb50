"""Reference oracle: ``RngTree.picks`` the obvious way.  A *full*
Fisher–Yates shuffle of ``list(range(m))`` — every swap done on a real
list — driven by a textbook SplitMix64 generator, keeping the first ``k``
entries.  O(m) where the shipped draw is O(k), so it is obviously right
and does the work the shipped one exists to skip; ``tests/test_util.py``
holds ``picks`` to it over generated (seed, m, k, stream).
"""

from __future__ import annotations

__all__ = ["splitmix64", "picks_reference"]

_MASK64 = 2**64 - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(state: int):
    """Steele, Lea & Flood's SplitMix64: the words after ``state``."""
    while True:
        state = (state + _GOLDEN) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def picks_reference(seed: int, m: int, k: int, stream: int = 0) -> list[int]:
    words = splitmix64(seed ^ ((2 * stream + 1) * _GOLDEN & _MASK64))
    deck = list(range(m))
    for i in range(m):
        j = i + (next(words) * (m - i) >> 64)
        deck[i], deck[j] = deck[j], deck[i]
    return deck[:k]
