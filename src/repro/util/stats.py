"""Small online-statistics helpers behind :mod:`repro.obs.metrics`.

Kept dependency-light (plain Python + numpy) so they can be used from inside
tight simulation loops without surprising allocation costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["OnlineStats", "Histogram"]


class OnlineStats:
    """Welford online mean/variance with min/max tracking.

    Numerically stable for long event streams (millions of samples), unlike
    the naive sum-of-squares formula.
    """

    __slots__ = ("count", "_mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        x = float(x)
        self.count += 1
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def extend(self, xs) -> None:
        for x in xs:
            self.add(x)

    @property
    def mean(self) -> float:
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1)."""
        if self.count < 2:
            return math.nan
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        v = self.variance
        return math.sqrt(v) if v == v else math.nan  # NaN-propagating

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """Return a new OnlineStats equal to the union of both streams."""
        out = OnlineStats()
        n = self.count + other.count
        if n == 0:
            return out
        delta = other._mean - self._mean
        out.count = n
        out._mean = self._mean + delta * other.count / n
        out._m2 = (
            self._m2 + other._m2 + delta * delta * self.count * other.count / n
        )
        out.min = min(self.min, other.min)
        out.max = max(self.max, other.max)
        return out

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.min if self.count else math.nan,
            "max": self.max if self.count else math.nan,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OnlineStats(n={self.count}, mean={self.mean:.4g}, std={self.std:.4g})"


@dataclass
class Histogram:
    """Fixed-bin histogram over ``[low, high)`` with under/overflow bins."""

    low: float
    high: float
    bins: int = 32
    counts: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    underflow: int = 0
    overflow: int = 0

    def __post_init__(self) -> None:
        if self.high <= self.low:
            raise ValueError("high must exceed low")
        if self.bins < 1:
            raise ValueError("need at least one bin")
        if self.counts is None:
            self.counts = np.zeros(self.bins, dtype=np.int64)

    def add(self, x: float) -> None:
        if x < self.low:
            self.underflow += 1
            return
        if x >= self.high:
            self.overflow += 1
            return
        idx = int((x - self.low) / (self.high - self.low) * self.bins)
        self.counts[min(idx, self.bins - 1)] += 1

    @property
    def total(self) -> int:
        return int(self.counts.sum()) + self.underflow + self.overflow

    def quantile(self, q: float) -> float:
        """Approximate quantile from bin midpoints (in-range samples only)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        inrange = int(self.counts.sum())
        if inrange == 0:
            return math.nan
        target = q * inrange
        cum = 0
        width = (self.high - self.low) / self.bins
        for i, c in enumerate(self.counts):
            cum += int(c)
            if cum >= target:
                return self.low + (i + 0.5) * width
        return self.high - 0.5 * width

    def edges(self) -> np.ndarray:
        return np.linspace(self.low, self.high, self.bins + 1)
