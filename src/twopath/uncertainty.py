"""Robertson uncertainty products for the path/wave observable pair.

The product of spreads of two observables is bounded below by half the
magnitude of their commutator expectation.  On balanced states the
path/wave pair saturates that bound: the path spread is one and the wave
spread equals the bound itself.  The interference scan holds the spreads,
the bound and the gap over a grid of balanced states as columns;
``duality_report`` is its single row, whose product and saturation flag
are derived from those values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .interferometer import interference_scan
from .qalgebra import Observable, StateVector, commutator, require_finite_angle
from .tolerances import TOL


@dataclass(frozen=True)
class UncertaintyReport:
    """Spreads, bound, and saturation gap at one scan point."""

    phi: float
    phi0: float
    delta_p: float
    delta_w: float
    bound: float
    gap: float

    @property
    def product(self) -> float:
        return self.delta_p * self.delta_w

    @property
    def saturated(self) -> bool:
        """The product meets its bound to within TOL.var."""
        return self.gap < TOL.var


def robertson_bound(a: Observable, b: Observable, state: StateVector) -> float:
    """Half the magnitude of the commutator expectation: the floor under
    the product of the two spreads."""
    comm = commutator(a, b)
    value = np.vdot(state.amplitudes, comm @ state.amplitudes)
    return 0.5 * abs(complex(value))


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
