"""The optical pipeline of an ideal two-path interferometer.

Beam splitter, phase shifter, balanced states, the path and wave
observables, and the interference scan, which returns its phi, <W> and
<P> columns.  Conventions: the path observable is sigma_z with the two
arms as its eigenstates; the beam splitter is the real rotation that
conjugates sigma_z into sigma_x, which makes zero the canonical setup
offset.  Any other offset is reached by composing with a phase shifter.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, NamedTuple

import numpy as np

from .qalgebra import (
    InvariantViolation,
    Observable,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    StateVector,
    UnitaryGate,
    expectations,
    require_finite_angle,
    require_finite_angles,
    require_states,
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class ScanResult(NamedTuple):
    """Interference scan samples as columns: phi, <W> and <P> per grid point."""

    phi: np.ndarray
    w_expect: np.ndarray
    p_expect: np.ndarray


def path_operator() -> Observable:
    """The which-arm observable: sigma_z, outcomes +1 (upper) and -1 (lower)."""
    return SIGMA_Z


def phase_shifter(phi: float) -> UnitaryGate:
    """Relative-phase gate diag(e^{-i phi/2}, e^{+i phi/2})."""
    phi = require_finite_angle(phi, "phi")
    half = 0.5 * phi
    return UnitaryGate(
        np.array(
            [[cmath.exp(-1j * half), 0.0], [0.0, cmath.exp(1j * half)]],
            dtype=np.complex128,
        )
    )


def beam_splitter() -> UnitaryGate:
    """The 50/50 splitter [[1, 1], [-1, 1]] / sqrt(2).

    A real rotation with determinant one; it maps the lower-port input to
    an equal-weight superposition of the arms and conjugates sigma_z into
    sigma_x.
    """
    return UnitaryGate(
        np.array(
            [[_INV_SQRT2, _INV_SQRT2], [-_INV_SQRT2, _INV_SQRT2]],
            dtype=np.complex128,
        )
    )


def balanced_state(phi: float) -> StateVector:
    """(e^{-i phi/2}, e^{+i phi/2}) / sqrt(2): equal weight in both arms."""
    phi = require_finite_angle(phi, "phi")
    half = 0.5 * phi
    return StateVector(
        np.array(
            [_INV_SQRT2 * cmath.exp(-1j * half), _INV_SQRT2 * cmath.exp(1j * half)],
            dtype=np.complex128,
        )
    )


def balanced_amplitudes(phis) -> np.ndarray:
    """The amplitudes of :func:`balanced_state` at each phi, as (N, 2) rows.

    Bit for bit the scalar construction, with finiteness and norms
    checked once for the whole batch.
    """
    half = 0.5 * require_finite_angles(phis, "phi")
    amps = np.empty((half.size, 2), dtype=np.complex128)
    amps[:, 0] = _INV_SQRT2 * np.exp(-1j * half)
    amps[:, 1] = _INV_SQRT2 * np.exp(1j * half)
    return require_states(amps)


def wave_operator(phi0: float) -> Observable:
    """The fringe observable cos(phi0) sigma_x + sin(phi0) sigma_y.

    Traceless, Hermitian, eigenvalues +1 and -1; identical to a path
    measurement placed after the closing beam splitter of a setup with
    offset phi0.
    """
    phi0 = require_finite_angle(phi0, "phi0")
    m = math.cos(phi0) * SIGMA_X.matrix + math.sin(phi0) * SIGMA_Y.matrix
    return Observable(m)


def interference_scan(phi0: float, grid: Iterable[float]) -> ScanResult:
    """Sweep the phase shifter and record <W> and <P> at each grid point.

    Each state is produced by the physical route, applying the phase
    shifter to the zero-phase balanced state, rather than by writing the
    shifted state down directly; the two constructions agreeing is one of
    the package's cross-checks.  The shifter matrices are stacked and
    applied as one matmul, which rounds as applying each gate does.
    """
    phi0 = require_finite_angle(phi0, "phi0")
    phis = require_finite_angles(list(grid), "grid entry")
    if not phis.size:
        raise InvariantViolation("interference scan needs a non-empty phase grid")
    half = 0.5 * phis
    shifters = np.zeros((phis.size, 2, 2), dtype=np.complex128)
    shifters[:, 0, 0] = np.exp(-1j * half)
    shifters[:, 1, 1] = np.exp(1j * half)
    start = balanced_amplitudes([0.0])[0]
    states = (shifters @ start[:, None])[:, :, 0]
    wave, path = wave_operator(phi0), path_operator()
    return ScanResult(phis, expectations(wave, states), expectations(path, states))
