"""The optical pipeline of an ideal two-path interferometer.

Beam splitter, phase shifter, balanced states, the path and wave
observables, and the interference scan, the one evaluator of a grid of
balanced states: it returns the fringe, the spreads, the Robertson bound
and the saturation gap as columns.  Conventions: the path observable is
sigma_z with the two arms as its eigenstates; the beam splitter is the
real rotation that conjugates sigma_z into sigma_x, which makes zero the
canonical setup offset.  Any other offset is reached by composing with a
phase shifter.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .qalgebra import (
    InvariantViolation,
    Observable,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    StateVector,
    UnitaryGate,
    require_finite_angle,
    require_finite_angles,
    robertson,
)
from .tolerances import TOL

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class ScanResult(NamedTuple):
    """Interference scan columns, in the order of the scan CSV: phi, <W>, <P>,
    the two spreads, the Robertson bound and delta_p * delta_w - bound."""

    phi: np.ndarray
    w_expect: np.ndarray
    p_expect: np.ndarray
    delta_p: np.ndarray
    delta_w: np.ndarray
    bound: np.ndarray
    gap: np.ndarray


def path_operator() -> Observable:
    """The which-arm observable: sigma_z, outcomes +1 (upper) and -1 (lower)."""
    return SIGMA_Z


def phase_shifter(phi: float) -> UnitaryGate:
    """Relative-phase gate diag(e^{-i phi/2}, e^{+i phi/2})."""
    return UnitaryGate(_shifter_matrices(require_finite_angle(phi, "phi")))


def _shifter_matrices(phis) -> np.ndarray:
    """:func:`phase_shifter`'s matrix for a finite phi, or an (N, 2, 2) stack for N of them."""
    half = 0.5 * np.asarray(phis, dtype=np.float64)
    matrices = np.zeros(half.shape + (2, 2), dtype=np.complex128)
    matrices[..., 0, 0], matrices[..., 1, 1] = np.exp(-1j * half), np.exp(1j * half)
    return matrices


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
    return StateVector(_balanced_rows(np.array([require_finite_angle(phi, "phi")]))[0])


def balanced_amplitudes(phis) -> np.ndarray:
    """The amplitudes of :func:`balanced_state` at each phi, as (N, 2) rows.

    Each row is :func:`balanced_state`'s, with finiteness checked once for
    the whole batch.  The rows, e^{-+i phi/2}/sqrt(2), have unit norm to
    rounding at every finite phi, so no norm check follows.
    """
    return _balanced_rows(require_finite_angles(phis, "phi"))


def _balanced_rows(phis: np.ndarray) -> np.ndarray:
    """:func:`balanced_amplitudes` of an array of angles already checked finite."""
    half = 0.5 * phis
    amps = np.empty((half.size, 2), dtype=np.complex128)
    amps[:, 0] = _INV_SQRT2 * np.exp(-1j * half)
    amps[:, 1] = _INV_SQRT2 * np.exp(1j * half)
    return amps


def wave_operator(phi0: float) -> Observable:
    """The fringe observable cos(phi0) sigma_x + sin(phi0) sigma_y.

    Traceless, Hermitian, eigenvalues +1 and -1; identical to a path
    measurement placed after the closing beam splitter of a setup with
    offset phi0.
    """
    return Observable(_wave_matrices(require_finite_angle(phi0, "phi0")))


def _wave_matrices(phi0s) -> np.ndarray:
    """The matrix of :func:`wave_operator` for a scalar phi0, or an (N, 2, 2)
    stack of them for an array of offsets already checked finite."""
    phi0s = np.asarray(phi0s, dtype=np.float64)[..., None, None]
    return np.cos(phi0s) * SIGMA_X.matrix + np.sin(phi0s) * SIGMA_Y.matrix


def interference_scan(phi0: float, grid) -> ScanResult:
    """The fringe and the uncertainty bookkeeping on the balanced state at
    every grid point, as columns.

    :func:`wave_operator` checks phi0, then the grid is checked once and
    its states built once, as :func:`balanced_amplitudes` rows.  Every
    column comes from the 2x2 formulas on them (the moments of the two
    observables, the Robertson bound), not from the closed forms, and
    each row equals the scalar functions on its state bit for bit.  A
    product of spreads below its bound by more than TOL.var raises
    InvariantViolation naming the first such phi.
    """
    scan = _scan_columns(phi0, grid)
    below = np.flatnonzero(scan.gap < -TOL.var)
    if below.size:
        k = below[0]
        product = scan.delta_p[k] * scan.delta_w[k]
        raise InvariantViolation(
            f"uncertainty product {float(product)!r} fell below its bound "
            f"{float(scan.bound[k])!r} at phi = {float(scan.phi[k])!r}"
        )
    return scan


def _scan_columns(phi0: float, grid) -> ScanResult:
    """:func:`interference_scan` without its check of the bound, so a caller
    that reports a violated bound, as ``verify`` does, can read the columns."""
    wave, path = wave_operator(phi0), path_operator()
    phis = require_finite_angles(grid, "grid entry")
    if not phis.size:
        raise InvariantViolation("interference scan needs a non-empty phase grid")
    (p_expect, w_expect), (p_var, w_var), bound = robertson(path, wave, _balanced_rows(phis))
    delta_p, delta_w = np.sqrt(p_var), np.sqrt(w_var)
    return ScanResult(phis, w_expect, p_expect, delta_p, delta_w, bound, delta_p * delta_w - bound)
