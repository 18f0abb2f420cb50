"""Residual and update-distance measures used by convergence detectors."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["relative_residual", "update_distance"]


def relative_residual(A: sp.spmatrix, x: np.ndarray, b: np.ndarray) -> float:
    """``||b - A x|| / ||b||`` (2-norm; absolute when ``b = 0``)."""
    r = b - A @ x
    b_norm = float(np.linalg.norm(b))
    r_norm = float(np.linalg.norm(r))
    return r_norm / b_norm if b_norm > 0 else r_norm


def update_distance(
    x_new: np.ndarray,
    x_old: np.ndarray,
    relative: bool = True,
    work: np.ndarray | None = None,
) -> float:
    """Distance between consecutive iterates (max-norm).

    This is the paper's practical convergence signal (§5.5): "the relative
    error between the last two iterations".

    ``work`` (same shape as ``x_new``) makes the reduction allocation-free:
    the same elementwise operations run into the caller's buffer, so the
    result is bitwise identical either way.
    """
    if not x_new.size:
        return 0.0
    if work is None:
        diff = float(np.max(np.abs(x_new - x_old)))
    else:
        np.subtract(x_new, x_old, out=work)
        np.abs(work, out=work)
        diff = float(work.max())
    if not relative:
        return diff
    if work is None:
        scale = float(np.max(np.abs(x_new)))
    else:
        np.abs(x_new, out=work)
        scale = float(work.max())
    return diff / scale if scale > 0 else diff
