"""Compute plane: shared inner-solve operators and a last-solve memo.

See :mod:`repro.compute.plane` for the architecture.
"""

from repro.compute.plane import CohortMember, ComputePlane

__all__ = ["ComputePlane", "CohortMember"]
