"""Cross-cutting utilities: seeded RNG trees, statistics, serialization
size-accounting and simple timers."""

from repro.util.rng import RngTree, derive_seed
from repro.util.stats import OnlineStats, Histogram, summarize
from repro.util.serialization import measured_size, clone_state
from repro.util.timer import WallTimer

__all__ = [
    "RngTree",
    "derive_seed",
    "OnlineStats",
    "Histogram",
    "summarize",
    "measured_size",
    "clone_state",
    "WallTimer",
]
