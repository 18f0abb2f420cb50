"""The update distance the convergence detectors read."""

from __future__ import annotations

import numpy as np

__all__ = ["update_distance"]


def update_distance(x_new: np.ndarray, x_old: np.ndarray,
                    work: np.ndarray) -> float:
    """Relative distance between consecutive iterates (max-norm).

    This is the paper's practical convergence signal (§5.5): "the relative
    error between the last two iterations".  ``work`` (same shape as
    ``x_new``) is the caller's scratch buffer, so the reduction allocates
    nothing.
    """
    if not x_new.size:
        return 0.0
    np.subtract(x_new, x_old, out=work)
    np.abs(work, out=work)
    diff = float(work.max())
    np.abs(x_new, out=work)
    scale = float(work.max())
    return diff / scale if scale > 0 else diff
