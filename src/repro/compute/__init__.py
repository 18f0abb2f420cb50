"""Compute plane: shared inner-solve operators and the solve counters.

See :mod:`repro.compute.plane` for the architecture.
"""

from repro.compute.plane import ComputePlane

__all__ = ["ComputePlane"]
