"""Deriving the wave observable from the complementarity requirement.

Two observables are complementary when certainty about either one makes
every outcome of the other equally likely.  For the two-path setup this
pins the wave observable's eigenvectors completely, up to one free
relative phase: they must carry zero path expectation and form an
orthonormal pair.  This module performs that derivation generically (it
solves the constraints rather than hard-coding their solution), assembles
observables from eigensystems, and tests arbitrary bases for
complementarity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qalgebra import (
    InvariantViolation,
    Observable,
    SIGMA_Z,
    StateVector,
    binary_eigensystem,
    eig_hermitian,
    expectation,
    require_finite_angle,
)
from .tolerances import TOL

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """An orthonormal pair of eigenvectors with real outcome labels."""

    plus: StateVector
    minus: StateVector
    labels: tuple[float, float] = (1.0, -1.0)

    def __post_init__(self) -> None:
        overlap = abs(np.vdot(self.plus.amplitudes, self.minus.amplitudes))
        if overlap > TOL.norm:
            raise InvariantViolation(
                f"eigenbasis is not orthogonal: |<plus|minus>| = {overlap:.3e}"
            )
        if not all(math.isfinite(x) for x in self.labels):
            raise InvariantViolation("eigenvalue labels must be finite reals")


@dataclass(frozen=True)
class ComplementarityVerdict:
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
    constraints = np.array([[1.0, -1.0], [1.0, 1.0]])
    targets = np.array([0.0, 1.0])
    moduli_sq = np.linalg.solve(constraints, targets)
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


def extract_phase_offset(state: StateVector) -> float:
    """Recover the free parameter of a constraint-satisfying state.

    For any normalized state with zero path expectation the relative
    phase between its components is the one remaining degree of freedom;
    it is returned canonically in (-pi, pi].
    """
    balance = abs(expectation(SIGMA_Z, state))
    if balance > TOL.comp:
        raise InvariantViolation(
            f"state does not satisfy the zero-path-expectation constraint "
            f"(|<sz>| = {balance:.3e})"
        )
    a0, a1 = state.amplitudes
    return canonical_phase(math.atan2(a1.imag, a1.real) - math.atan2(a0.imag, a0.real))


def observable_from_eigensystem(basis: EigenBasis) -> Observable:
    """Spectral assembly: sum of label * |vector><vector| over the basis."""
    lp, lm = basis.labels
    p = basis.plus.amplitudes
    m = basis.minus.amplitudes
    matrix = lp * np.outer(p, np.conj(p)) + lm * np.outer(m, np.conj(m))
    return Observable(matrix)


def eigenbasis_of(obs: Observable) -> EigenBasis:
    """Closed-form eigenbasis of a Hermitian 2x2 operator, labels attached.

    The larger eigenvalue goes into the plus slot.
    """
    evals, vecs = eig_hermitian(obs)
    return EigenBasis(
        plus=StateVector(vecs[:, 0]),
        minus=StateVector(vecs[:, 1]),
        labels=(float(evals[0]), float(evals[1])),
    )


def path_eigenbasis() -> EigenBasis:
    """The eigenbasis of the path observable: the two arms, labels +1/-1."""
    return eigenbasis_of(SIGMA_Z)


def is_complementary(basis_a: EigenBasis, basis_b: EigenBasis) -> ComplementarityVerdict:
    """Mutual-unbiasedness test: all four cross overlaps squared equal 1/2."""
    deviation = 0.0
    for u in (basis_a.plus, basis_a.minus):
        for v in (basis_b.plus, basis_b.minus):
            overlap_sq = float(abs(np.vdot(u.amplitudes, v.amplitudes)) ** 2)
            deviation = max(deviation, abs(overlap_sq - 0.5))
    return ComplementarityVerdict(max_deviation=deviation)


def check_mutual_zero_expectation(
    p_obs: Observable, basis_w: EigenBasis
) -> tuple[float, float, float, float]:
    """The four cross expectation values that complementarity forces to zero.

    Returns (<w+|P|w+>, <w-|P|w->, <p+|W|p+>, <p-|W|p->) where W is
    assembled from basis_w and p+/- are the eigenvectors of p_obs.  All
    four vanish exactly when the pair is complementary.
    """
    _, vecs = binary_eigensystem(p_obs)
    w_obs = observable_from_eigensystem(basis_w)
    p_plus = StateVector(vecs[:, 0])
    p_minus = StateVector(vecs[:, 1])
    return (
        expectation(p_obs, basis_w.plus),
        expectation(p_obs, basis_w.minus),
        expectation(w_obs, p_plus),
        expectation(w_obs, p_minus),
    )
