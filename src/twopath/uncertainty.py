"""Robertson uncertainty products for the path/wave observable pair.

The product of spreads of two observables is bounded below by half the
magnitude of their commutator expectation.  On balanced states the
path/wave pair saturates that bound: the path spread is one and the wave
spread equals the bound itself.  ``duality_table`` holds the spreads, the
bound and the gap over a grid of balanced states as columns;
``duality_report`` is its single row, whose product and saturation flag
are derived from those values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .interferometer import balanced_amplitudes, path_operator, wave_operator
from .qalgebra import (
    InvariantViolation,
    Observable,
    StateVector,
    commutator,
    matrix_elements,
    require_finite_angle,
    require_finite_angles,
    variances,
)
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


class DualityTable(NamedTuple):
    """Uncertainty bookkeeping over a grid of balanced states, as columns.

    Row k is what :func:`duality_report` gives for (phi[k], phi0).
    """

    phi0: float
    phi: np.ndarray
    delta_p: np.ndarray
    delta_w: np.ndarray
    bound: np.ndarray
    gap: np.ndarray


def duality_table(phis, phi0: float) -> DualityTable:
    """Uncertainty bookkeeping on the balanced state at every phi, in one batch.

    Everything is computed through the operator machinery, not from the
    closed forms: the spreads come from variances on the actual states and
    the bound from the actual commutator.  Ideal two-path interferometry
    makes the product equal the bound; a product below its bound by more
    than TOL.var raises InvariantViolation naming the first such phi.
    """
    phi = require_finite_angles(phis, "phi")
    phi0 = require_finite_angle(phi0, "phi0")
    amps = balanced_amplitudes(phi)
    path = path_operator()
    wave = wave_operator(phi0)
    delta_p = np.sqrt(variances(path, amps))
    delta_w = np.sqrt(variances(wave, amps))
    # np.hypot rounds as abs() of a Python complex does; np.abs can differ
    # from it in the last bit.
    element = matrix_elements(commutator(path, wave), amps)
    bound = 0.5 * np.hypot(element.real, element.imag)
    product = delta_p * delta_w
    gap = product - bound
    below = np.flatnonzero(gap < -TOL.var)
    if below.size:
        k = below[0]
        raise InvariantViolation(
            f"uncertainty product {float(product[k])!r} fell below its bound "
            f"{float(bound[k])!r} at phi = {float(phi[k])!r}"
        )
    return DualityTable(phi0, phi, delta_p, delta_w, bound, gap)


def duality_report(phi: float, phi0: float) -> UncertaintyReport:
    """Full uncertainty bookkeeping on the balanced state at phi.

    The single row of :func:`duality_table` over [phi].
    """
    table = duality_table([phi], phi0)
    phi, delta_p, delta_w, bound, gap = (column.item() for column in table[1:])
    return UncertaintyReport(phi, table.phi0, delta_p, delta_w, bound, gap)


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
