"""Cross-cutting utilities: seeded RNG trees, serialization
size-accounting and simple timers."""

from repro.util.rng import RngTree, derive_seed
from repro.util.serialization import measured_size, clone_state
from repro.util.timer import WallTimer

__all__ = [
    "RngTree",
    "derive_seed",
    "measured_size",
    "clone_state",
    "WallTimer",
]
