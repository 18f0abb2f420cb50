"""``repro.experiments`` — the harness that regenerates the paper's
evaluation (§7): Figure 7, the in-text claims C1–C4 and the design-choice
ablations A1–A4 indexed in DESIGN.md.

Scaling note (documented in DESIGN.md): problems run at n ≈ 40–128 on 8
peers instead of n = 2000–5000 on 80, and the link parameters are scaled
(``link_scale``) so the compute-per-iteration / communication-per-iteration
regime — the paper's ratio (4), which its §7 analysis is entirely built on —
covers the same range.  Absolute times are simulated seconds, not 2006
wall-clock; shapes (who wins, slowdown factors, trends in n) are the
reproduction target.
"""

from repro.experiments.config import (
    EXPERIMENT_CONFIG,
    EXPERIMENT_LINK_SCALE,
    RECONNECT_DELAY,
    optimal_overlap,
)
from repro.experiments.driver import RunResult
from repro.experiments.figure7 import Figure7Result, figure7_sweep
from repro.experiments.ratio import RatioResult, iterations_vs_n
from repro.experiments.syncasync import SyncAsyncResult, sync_vs_async
from repro.experiments.ablations import (
    checkpoint_frequency_ablation,
    backup_count_ablation,
    overlap_ablation,
    bootstrap_scaling,
)
from repro.experiments.report import format_table

__all__ = [
    "EXPERIMENT_CONFIG",
    "EXPERIMENT_LINK_SCALE",
    "RECONNECT_DELAY",
    "optimal_overlap",
    "RunResult",
    "Figure7Result",
    "figure7_sweep",
    "RatioResult",
    "iterations_vs_n",
    "SyncAsyncResult",
    "sync_vs_async",
    "checkpoint_frequency_ablation",
    "backup_count_ablation",
    "overlap_ablation",
    "bootstrap_scaling",
    "format_table",
]
