"""``repro.apps`` — SPMD Task implementations runnable on the runtime.

* :class:`PoissonTask` — the paper's application (§6): block-Jacobi
  multisplitting of the 2-D Poisson system with an inner sparse Conjugate
  Gradient and component overlapping.
* :class:`JacobiTask` — point-Jacobi sweeps on the local strip: the
  cheapest-iteration contrast app (large communication/compute ratio).
* :class:`HeatTask` — pseudo-transient continuation (explicit local time
  marching of the heat equation to its steady state): the "nonstationary
  PDE" direction from the paper's future work (§8), async-compatible
  because each local step is a contraction.
* :class:`NonlinearPoissonTask` — the semilinear problem
  ``-Δu + c·u³ = f`` with inner Newton/CG: the "nonlinear applications"
  direction from §8.
* :class:`ConvectionDiffusionTask` — upwind convection–diffusion with
  nonsymmetric blocks and an inner BiCGSTAB.

All five are :class:`~repro.apps.strip.StripTask` subclasses: the strip
plumbing (state, inbox fold, rhs assembly, update distance, payloads) is
shared, and each app supplies its setup and one local update.
"""

from repro.apps.poisson_task import PoissonTask, make_poisson_app
from repro.apps.jacobi_task import JacobiTask, make_jacobi_app
from repro.apps.heat_task import HeatTask, make_heat_app
from repro.apps.nonlinear_task import (
    NonlinearPoissonTask,
    make_nonlinear_app,
    nonlinear_reference,
)
from repro.apps.convdiff_task import ConvectionDiffusionTask, make_convdiff_app

__all__ = [
    "ConvectionDiffusionTask",
    "make_convdiff_app",
    "PoissonTask",
    "make_poisson_app",
    "JacobiTask",
    "make_jacobi_app",
    "HeatTask",
    "make_heat_app",
    "NonlinearPoissonTask",
    "make_nonlinear_app",
    "nonlinear_reference",
]
