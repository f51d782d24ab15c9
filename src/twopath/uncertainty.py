"""Robertson uncertainty products for the path/wave observable pair.

The product of spreads of two observables is bounded below by half the
magnitude of their commutator expectation.  On balanced states the
path/wave pair saturates that bound: the path spread is one and the wave
spread equals the bound itself.  The interference scan holds the spreads,
the bound and the gap over a grid of balanced states as columns;
``duality_report`` is its single row, whose saturation flag is derived
from its gap.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .interferometer import interference_scan
from .qalgebra import commutator_bound, require_finite_angle
from .tolerances import TOL


class UncertaintyReport(NamedTuple):
    """Spreads, bound, and saturation gap at one scan point."""

    phi: float
    phi0: float
    delta_p: float
    delta_w: float
    bound: float
    gap: float

    @property
    def saturated(self) -> bool:
        """The product meets its bound to within TOL.var."""
        return self.gap < TOL.var


robertson_bound = commutator_bound  # on one state; interference_scan has the rows


def duality_report(phi: float, phi0: float) -> UncertaintyReport:
    """Full uncertainty bookkeeping on the balanced state at phi.

    The single row of :func:`interference_scan` over [phi], which checks
    phi0 through :func:`wave_operator`.
    """
    phi = require_finite_angle(phi, "phi")
    scan = interference_scan(phi0, [phi])
    return UncertaintyReport(phi, float(phi0), *(column.item() for column in scan[3:]))


def sensitivity(phi: float, phi0: float) -> float:
    """|d<W>/dphi| of the interference pattern at the given scan point.

    The pattern is cos(phi - phi0), so the slope magnitude is
    |sin(phi - phi0)|; it coincides with the wave spread, which is why
    the points of greatest interferometric sensitivity are exactly the
    points of maximal uncertainty.
    """
    phi = require_finite_angle(phi, "phi")
    phi0 = require_finite_angle(phi0, "phi0")
    return abs(math.sin(phi - phi0))
