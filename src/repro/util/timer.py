"""Wall-clock timing helper for the real (threaded) backend and benches."""

from __future__ import annotations

import time

__all__ = ["WallTimer"]


class WallTimer:
    """Context-manager stopwatch.

    >>> with WallTimer() as t:
    ...     pass
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.start: float | None = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "WallTimer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        assert self.start is not None
        self.elapsed = time.perf_counter() - self.start