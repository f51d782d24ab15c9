"""Deriving the wave observable from the complementarity requirement.

Two observables are complementary when certainty about either one makes
every outcome of the other equally likely.  For the two-path setup this
pins the wave observable's eigenvectors completely, up to one free
relative phase: they must carry zero path expectation and form an
orthonormal pair.  This module performs that derivation generically (it
solves the constraints rather than hard-coding their solution), assembles
+1/-1 observables from their eigenbases, and tests any two such bases
(:class:`qalgebra.EigenBasis`) for complementarity.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .qalgebra import (
    EigenBasis,
    Observable,
    SIGMA_Z,
    StateVector,
    binary_eigensystem,
    inner,
    odds,
    require_finite_angle,
)
from .tolerances import TOL

_TWO_PI = 2.0 * math.pi


class ComplementarityVerdict(NamedTuple):
    """Outcome of a mutual-unbiasedness test between two bases."""

    max_deviation: float  # largest |overlap^2 - 1/2| over the four pairs

    @property
    def complementary(self) -> bool:
        return self.max_deviation < TOL.comp


def canonical_phase(phi: float) -> float:
    """Wrap an angle to the canonical representative in (-pi, pi]."""
    phi = require_finite_angle(phi, "phi")
    wrapped = math.remainder(phi, _TWO_PI)
    if wrapped <= -math.pi:
        wrapped += _TWO_PI
    return wrapped


def _solve_2x2(m, t) -> np.ndarray:
    """The solution x of the real 2x2 system m x = t whose m[0][0] is at least
    |m[1][0]|, by Gaussian elimination in the steps of an LU solve."""
    (a, b), (c, d) = m
    t0, t1 = t
    factor = c / a
    x1 = (t1 - factor * t0) / (d - factor * b)
    return np.array([(t0 - b * x1) / a, x1])


def derive_wave_eigenbasis(phi0: float) -> EigenBasis:
    """Solve the complementarity constraints for the wave eigenbasis.

    Writing a candidate eigenvector as (r0 e^{i alpha}, r1 e^{i beta}),
    zero path expectation demands r0^2 - r1^2 = 0 and normalization
    demands r0^2 + r1^2 = 1; solving that linear system forces both
    moduli to 1/sqrt(2) and leaves the relative phase beta - alpha free.
    phi0 selects the member of the family (split symmetrically across the
    two components), and the partner eigenvector is the unique orthogonal
    ray, which automatically satisfies the same constraints.
    """
    phi0 = canonical_phase(phi0)
    moduli_sq = _solve_2x2(((1.0, -1.0), (1.0, 1.0)), (0.0, 1.0))
    r0, r1 = np.sqrt(moduli_sq)
    half = 0.5 * phi0
    plus = StateVector(
        np.array(
            [r0 * np.exp(-1j * half), r1 * np.exp(1j * half)], dtype=np.complex128
        )
    )
    a0, a1 = plus.amplitudes
    minus = StateVector(np.array([-np.conj(a1), np.conj(a0)], dtype=np.complex128))
    return EigenBasis(plus=plus, minus=minus)


def observable_from_eigensystem(basis: EigenBasis) -> Observable:
    """Spectral assembly of the +1/-1 observable: |plus><plus| - |minus><minus|."""
    p, m = basis.plus.amplitudes, basis.minus.amplitudes
    # entry (i, j) = p_i p_j* - m_i m_j* = <(p_j, m_j)|(p_i, -m_i)>
    return Observable([[inner((p[j], m[j]), (p[i], -m[i])) for j in (0, 1)] for i in (0, 1)])


def path_eigenbasis() -> EigenBasis:
    """The eigenbasis of the path observable: the upper arm +1, the lower -1."""
    return binary_eigensystem(SIGMA_Z)


def is_complementary(basis_a: EigenBasis, basis_b: EigenBasis) -> ComplementarityVerdict:
    """Mutual-unbiasedness test: all four cross overlaps squared equal 1/2."""
    pairs = [(u, v) for u in (basis_a.plus, basis_a.minus) for v in (basis_b.plus, basis_b.minus)]
    deviation = max(abs(float(odds(u, v)) - 0.5) for u, v in pairs)
    return ComplementarityVerdict(max_deviation=deviation)
