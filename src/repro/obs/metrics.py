"""The metrics registry: labelled counters, gauges and histograms.

Where the trace bus (:mod:`repro.obs.trace`) records *what happened when*,
the registry aggregates *how much of it happened*: monotonic counters,
point-in-time gauges and distribution summaries, each optionally labelled
(``counter.inc(task=3)`` keeps one value per label set).

:class:`~repro.obs.instruments.RunTelemetry` is a thin attribute surface
over one of these registries, so counter reads work as attributes while other
code can query the registry directly (``registry.snapshot()``).
"""

from __future__ import annotations

from repro.util.stats import Histogram as _Bins
from repro.util.stats import OnlineStats

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

_UNLABELLED: tuple = ()


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items())) if labels else _UNLABELLED


class Metric:
    """Base: a named, documented family of labelled values."""

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class Counter(Metric):
    """Monotonic (by convention) accumulator with one value per label set."""

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def set(self, value: float, **labels) -> None:
        """Absolute write — exists for ``RunTelemetry``'s
        ``telemetry.field += 1`` pattern (read-modify-write)."""
        self._values[_label_key(labels)] = float(value)

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0.0)

    @property
    def total(self) -> float:
        return sum(self._values.values())

    def by_label(self, label_name: str) -> dict:
        """Aggregate totals keyed by one label's values."""
        out: dict = {}
        for key, v in self._values.items():
            for k, lv in key:
                if k == label_name:
                    out[lv] = out.get(lv, 0.0) + v
        return out

    def snapshot(self) -> dict:
        return {
            "type": "counter",
            "total": self.total,
            "values": {str(dict(k)) if k else "": v for k, v in self._values.items()},
        }


class Gauge(Metric):
    """Point-in-time value per label set (last write wins)."""

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: dict[tuple, float] = {}

    def set(self, value: float, **labels) -> None:
        self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, default: float | None = None, **labels):
        return self._values.get(_label_key(labels), default)

    def clear(self, **labels) -> None:
        self._values.pop(_label_key(labels), None)

    def snapshot(self) -> dict:
        return {
            "type": "gauge",
            "values": {str(dict(k)) if k else "": v for k, v in self._values.items()},
        }


class Histogram(Metric):
    """Distribution summary: Welford stats, optionally with fixed bins.

    Without ``low``/``high`` bounds it keeps only the online summary
    (count/mean/std/min/max); with bounds it also maintains a fixed-bin
    :class:`repro.util.stats.Histogram` for approximate quantiles.
    """

    def __init__(
        self,
        name: str,
        help: str = "",
        low: float | None = None,
        high: float | None = None,
        bins: int = 32,
    ):
        super().__init__(name, help)
        self.stats = OnlineStats()
        self.bins = _Bins(low, high, bins) if low is not None and high is not None else None

    def observe(self, value: float) -> None:
        self.stats.add(value)
        if self.bins is not None:
            self.bins.add(value)

    @property
    def count(self) -> int:
        return self.stats.count

    def quantile(self, q: float) -> float:
        if self.bins is None:
            raise ValueError(f"histogram {self.name!r} has no bins (pass low/high)")
        return self.bins.quantile(q)

    def snapshot(self) -> dict:
        out = {"type": "histogram", **self.stats.as_dict()}
        if self.bins is not None:
            out["p50"] = self.bins.quantile(0.50)
            out["p95"] = self.bins.quantile(0.95)
        return out


class MetricsRegistry:
    """Get-or-create store of metrics, keyed by name.

    Re-requesting an existing name returns the same object (so independent
    components can share a counter); requesting it as a different metric
    type raises.
    """

    def __init__(self):
        self._metrics: dict[str, Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {cls.__name__}"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        low: float | None = None,
        high: float | None = None,
        bins: int = 32,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, low=low, high=high, bins=bins)

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict:
        """JSON-friendly dump of every metric's current state."""
        return {name: m.snapshot() for name, m in sorted(self._metrics.items())}
