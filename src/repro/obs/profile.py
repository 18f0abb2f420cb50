"""Profiling harness: cProfile capture with per-layer time attribution.

The question a simulator developer actually asks is not "which function is
hot" but "which *layer* is eating the run" — kernel, network fabric, RMI,
protocol logic, or numerics.  This module runs any callable under
:mod:`cProfile` and folds the flat stats into both views:

* :attr:`ProfileReport.layers` — exclusive (``tottime``) seconds summed per
  architectural layer, mapped from module paths (``repro/des/...`` →
  ``kernel``, ``repro/net/...`` → ``network``, ...).  Exclusive time
  partitions the total exactly: the fractions sum to 1.
* :attr:`ProfileReport.top` — the classic top-N functions by cumulative
  time, for drilling into a layer once attribution has pointed at it.
* :attr:`ProfileReport.collector` — seconds spent inside CPython's cyclic
  garbage collector, passes per generation and objects collected, metered
  by a ``gc.callbacks`` hook.  cProfile cannot see the collector: it
  charges each pause to whichever frame happened to be allocating, so this
  time is *included in* the layer rows, not a row beside them.

Usage::

    from repro.exec import RunSpec
    from repro.obs.profile import profile_callable
    report, result = profile_callable(RunSpec(n=16, peers=3).run)
    print(report.to_text())

or from the shell::

    repro-cli profile --n 16 --peers 3 --top 15 --json profile.json

The capture is deliberately *outside* the simulator: profiling a run never
touches kernel state, so a profiled run returns bitwise-identical results
to an unprofiled one (cProfile only adds wall-clock overhead).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    import pstats

__all__ = ["LAYERS", "ProfileReport", "profile_callable", "layer_of"]

#: Ordered layer → module-path-prefix table.  First match wins; paths are
#: matched against the part of the filename after the last ``repro/``.
LAYERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("kernel", ("des/",)),
    ("network", ("net/",)),
    ("rmi", ("rmi/",)),
    ("p2p", ("p2p/",)),
    ("gossip", ("gossip/",)),
    ("compute", ("compute/",)),
    ("numerics", ("numerics/", "apps/", "convergence/", "baselines/", "local/")),
    ("faults", ("faults/", "churn/",)),
    ("checkpoint", ("checkpoint/",)),
    ("obs", ("obs/",)),
    ("harness", ("exec/", "experiments/", "cli.py")),
    ("util", ("util/", "errors.py", "version.py", "__init__.py")),
)

#: Layer assigned to frames outside the ``repro`` package (stdlib,
#: interpreter builtins, site-packages).
OTHER_LAYER = "other"

_MARKER = "repro/"


def layer_of(filename: str) -> str:
    """Map a profile frame's filename to its architectural layer."""
    idx = filename.rfind(_MARKER)
    if idx < 0:
        return OTHER_LAYER
    rel = filename[idx + len(_MARKER):]
    for layer, prefixes in LAYERS:
        for prefix in prefixes:
            if rel.startswith(prefix):
                return layer
    return OTHER_LAYER


@dataclass
class ProfileReport:
    """Folded view of one cProfile capture."""

    total_time_s: float
    total_calls: int
    #: layer → {"time_s": exclusive seconds, "fraction": share of total}
    layers: dict = field(default_factory=dict)
    #: top functions by cumulative time:
    #: {"function", "file", "line", "ncalls", "tottime_s", "cumtime_s"}
    top: list = field(default_factory=list)
    #: the cyclic collector during the capture: {"time_s", "fraction",
    #: "passes" (per generation, youngest first), "collected"}; the time
    #: is already inside the layer rows
    collector: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-ready payload (the schema the golden test pins)."""
        return {
            "total_time_s": self.total_time_s,
            "total_calls": self.total_calls,
            "layers": {
                name: {"time_s": entry["time_s"], "fraction": entry["fraction"]}
                for name, entry in self.layers.items()
            },
            "top": list(self.top),
            "collector": dict(self.collector),
        }

    def to_text(self) -> str:
        lines = [
            f"profile: {self.total_time_s:.3f}s, {self.total_calls} calls",
            "",
            "per-layer attribution (exclusive time):",
        ]
        width = max((len(name) for name in self.layers), default=5)
        for name, entry in sorted(
            self.layers.items(), key=lambda kv: -kv[1]["time_s"]
        ):
            bar = "#" * round(40 * entry["fraction"])
            lines.append(
                f"  {name:>{width}}  {entry['time_s']:8.3f}s"
                f"  {100 * entry['fraction']:5.1f}%  {bar}"
            )
        if self.collector:
            passes = "/".join(str(n) for n in self.collector["passes"])
            lines.append(
                f"  of which garbage collector (included in the rows above):"
                f" {self.collector['time_s']:.3f}s"
                f"  {100 * self.collector['fraction']:.1f}%"
                f"  passes gen0/1/2 {passes}"
                f"  collected {self.collector['collected']}"
            )
        lines.append("")
        lines.append("top functions (cumulative):")
        for row in self.top:
            lines.append(
                f"  {row['cumtime_s']:8.3f}s cum  {row['tottime_s']:8.3f}s excl"
                f"  {row['ncalls']:>9}x  {row['function']}"
                f"  ({row['file']}:{row['line']})"
            )
        return "\n".join(lines)


#: repository root (this file lives at src/repro/obs/profile.py)
_REPO_ROOT = str(Path(__file__).resolve().parents[3])


def _repo_relative(filename: str) -> str:
    """Strip the machine-specific repo prefix from a profile frame path.

    Saved reports (``repro-cli profile --json``) embed these paths;
    repo-relative forms diff cleanly across checkouts.
    Frames outside the repo (stdlib, site-packages, ``<built-in>``) pass
    through unchanged.
    """
    if filename.startswith(_REPO_ROOT + "/"):
        return filename[len(_REPO_ROOT) + 1:]
    return filename


def _fold(stats: pstats.Stats, top_n: int) -> ProfileReport:
    total_tt = 0.0
    total_calls = 0
    layer_time: dict[str, float] = {}
    rows = []
    for (filename, line, funcname), (cc, nc, tt, ct, _callers) in stats.stats.items():
        total_tt += tt
        total_calls += nc
        layer = layer_of(filename)
        layer_time[layer] = layer_time.get(layer, 0.0) + tt
        rows.append((ct, tt, nc, funcname, filename, line))
    # recursion makes cumtime of the root exceed wall time; sorting by it
    # still surfaces the structurally expensive call trees first
    rows.sort(key=lambda r: -r[0])
    top = [
        {
            "function": funcname,
            "file": _repo_relative(filename),
            "line": line,
            "ncalls": nc,
            "tottime_s": round(tt, 6),
            "cumtime_s": round(ct, 6),
        }
        for ct, tt, nc, funcname, filename, line in rows[:top_n]
    ]
    denom = total_tt or 1.0
    layers = {
        name: {"time_s": round(t, 6), "fraction": round(t / denom, 6)}
        for name, t in layer_time.items()
    }
    return ProfileReport(
        total_time_s=round(total_tt, 6),
        total_calls=total_calls,
        layers=layers,
        top=top,
    )


def profile_callable(
    fn: Callable[[], Any], top_n: int = 10
) -> tuple[ProfileReport, Any]:
    """Run ``fn()`` under cProfile; returns ``(report, fn's return value)``."""
    import cProfile
    import pstats

    seconds = 0.0
    started = 0.0
    passes = [0, 0, 0]
    collected = 0

    def meter(phase: str, info: dict) -> None:
        nonlocal seconds, started, collected
        if phase == "start":
            started = time.perf_counter()
        else:
            seconds += time.perf_counter() - started
            passes[info["generation"]] += 1
            collected += info["collected"]

    profiler = cProfile.Profile()
    gc.callbacks.append(meter)
    profiler.enable()
    try:
        value = fn()
    finally:
        profiler.disable()
        gc.callbacks.remove(meter)
    report = _fold(pstats.Stats(profiler), top_n=top_n)
    report.collector = {
        "time_s": round(seconds, 6),
        "fraction": round(seconds / (report.total_time_s or 1.0), 6),
        "passes": passes,
        "collected": collected,
    }
    return report, value
