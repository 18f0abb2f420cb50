"""Registry of the process-wide caches.

The perf-sensitive layers keep process-wide memos (the decomposition cache in
:mod:`repro.numerics.splitting`, the per-class dataclass metadata in
:mod:`repro.util.serialization`).  Each registers its ``clear`` here, so a
test can isolate itself from whatever ran before it and a benchmark can time
a cold start, with one call to :func:`clear_caches`.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["register_cache", "clear_caches"]

#: Clear-callbacks of every process-wide cache.
_cache_clearers: list[Callable[[], None]] = []


def register_cache(clear: Callable[[], None]) -> Callable[[], None]:
    """Register a cache's ``clear`` callable; returns it unchanged."""
    _cache_clearers.append(clear)
    return clear


def clear_caches() -> None:
    """Drop every registered process-wide cache (decompositions, memos)."""
    for clear in _cache_clearers:
        clear()
