"""Complex two-dimensional Hilbert-space primitives.

States, Hermitian observables, and unitaries are thin immutable wrappers
around validated numpy arrays; all operations are pure functions.
Constructors reject invalid input instead of repairing it; use
:func:`normalized` when renormalization is actually wanted.

Each value is checked where it enters the library, a stream seed by
:func:`require_seed`.  The three value types share one construction check
and add only their own norm, Hermiticity or unitarity test.
:class:`EigenBasis` is the one form of a +1/-1 observable's eigenbasis;
:func:`binary_eigensystem` solves for it.  :func:`expectations` validates an
(N, 2) batch of state rows once and gives each row the scalar result bit for
bit.  The private row kernels under it trust rows the library built, and
take one 2x2 matrix for every row or an (N, 2, 2) stack, one per row.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .tolerances import TOL


class InvariantViolation(ValueError):
    """A value failed one of the library's validity invariants."""


def require_finite_angle(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise InvariantViolation(f"{name} must be a finite angle, got {value!r}")
    return value


def require_seed(seed) -> int:
    """`seed` as an int, if it is an unsigned 64-bit integer; a float or a string is not."""
    try:
        value = operator.index(seed)
    except TypeError:  # a float or a string: no index, so out of range
        value = -1
    if not 0 <= value < 1 << 64:
        raise InvariantViolation(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return value


def require_finite_angles(values, name: str) -> np.ndarray:
    """A fresh 1-D float array of angles.

    The first non-finite entry raises the message
    :func:`require_finite_angle` gives for it.
    """
    angles = np.array(values, dtype=np.float64)
    if angles.ndim != 1:
        raise InvariantViolation(f"{name} values must form a 1-D sequence, got shape {angles.shape}")
    bad = np.flatnonzero(~np.isfinite(angles))
    if bad.size:
        require_finite_angle(angles[bad[0]], name)
    return angles


def _checked_copy(values, shape: tuple[int, ...], shape_error: str, finite_error: str) -> np.ndarray:
    """A read-only complex copy of values with the given shape and finite entries."""
    a = np.array(values, dtype=np.complex128, order="C")
    if a.shape != shape:
        raise InvariantViolation(f"{shape_error}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvariantViolation(finite_error)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex 2-vector of probability amplitudes.

    The global phase carries no physics; compare states with
    :func:`states_equal`, never element-wise.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        a = _checked_copy(self.amplitudes, (2,), "state must be a complex 2-vector",
                          "state amplitudes must be finite (no NaN/Inf)")
        norm_sq = float(a.real @ a.real + a.imag @ a.imag)
        if abs(norm_sq - 1.0) > TOL.norm:
            raise InvariantViolation(
                f"state is not normalized: |a0|^2 + |a1|^2 = {norm_sq!r}"
            )
        object.__setattr__(self, "amplitudes", a)


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian 2x2 operator."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _checked_copy(self.matrix, (2, 2), "observable must be 2x2",
                          "observable entries must be finite (no NaN/Inf)")
        residual = float(np.abs(m - m.conj().T).max())
        if residual > TOL.herm:
            raise InvariantViolation(
                f"observable is not Hermitian: max |M - M^dag| = {residual:.3e}"
            )
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class UnitaryGate:
    """Unitary 2x2 operator."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _checked_copy(self.matrix, (2, 2), "gate must be 2x2",
                          "gate entries must be finite (no NaN/Inf)")
        residual = float(np.abs(m @ m.conj().T - np.eye(2)).max())
        if residual > TOL.unit:
            raise InvariantViolation(
                f"gate is not unitary: max |U U^dag - I| = {residual:.3e}"
            )
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """The orthonormal eigenvectors of a +1/-1 observable: plus for the
    outcome +1, minus for -1."""

    plus: StateVector
    minus: StateVector

    def __post_init__(self) -> None:
        overlap = abs(np.vdot(self.plus.amplitudes, self.minus.amplitudes))
        if overlap > TOL.norm:
            raise InvariantViolation(
                f"eigenbasis is not orthogonal: |<plus|minus>| = {overlap:.3e}"
            )


SIGMA_X = Observable(np.array([[0, 1], [1, 0]], dtype=np.complex128))
SIGMA_Y = Observable(np.array([[0, -1j], [1j, 0]], dtype=np.complex128))
SIGMA_Z = Observable(np.array([[1, 0], [0, -1]], dtype=np.complex128))
IDENTITY = Observable(np.eye(2, dtype=np.complex128))

#: Computational basis kets; the upper/lower interferometer arms.
KET_UPPER = StateVector(np.array([1, 0], dtype=np.complex128))
KET_LOWER = StateVector(np.array([0, 1], dtype=np.complex128))


def expectation(obs: Observable, state: StateVector) -> float:
    """<state|obs|state>, a real number within the spectrum of obs."""
    return float(np.vdot(state.amplitudes, obs.matrix @ state.amplitudes).real)


def variance(obs: Observable, state: StateVector) -> float:
    """<obs^2> - <obs>^2, always >= 0.

    Evaluated as the squared norm of the residual vector
    (obs - <obs>)|state>, which is algebraically the same quantity but
    keeps full precision near eigenstates, where the textbook difference
    of two near-unit terms cancels catastrophically.
    """
    mean = expectation(obs, state)
    residual = obs.matrix @ state.amplitudes - mean * state.amplitudes
    return max(float(np.vdot(residual, residual).real), 0.0)


def require_states(amps) -> np.ndarray:
    """An (N, 2) complex array whose rows are normalized state amplitudes.

    Validates the whole batch at once, with the checks and messages of
    :class:`StateVector`; the first bad row is named by its index.
    """
    a = np.asarray(amps, dtype=np.complex128)
    if a.ndim != 2 or a.shape[1] != 2:
        raise InvariantViolation(f"states must form an (N, 2) complex array, got shape {a.shape}")
    squares = a.real**2 + a.imag**2
    norm_sq = squares[:, 0] + squares[:, 1]
    # A non-finite row has a NaN or infinite norm, which fails this test too.
    unit_norm = np.abs(norm_sq - 1.0) <= TOL.norm
    if not unit_norm.all():
        if not np.isfinite(a).all():
            raise InvariantViolation("state amplitudes must be finite (no NaN/Inf)")
        k = np.flatnonzero(~unit_norm)[0]
        raise InvariantViolation(
            f"state {k} is not normalized: |a0|^2 + |a1|^2 = {float(norm_sq[k])!r}"
        )
    return a


# The row-wise products below are written as stacked matmuls because those
# round exactly as np.vdot and `matrix @ vector` do on one row, so a batch
# reproduces the scalar functions bit for bit.  np.einsum and elementwise
# sums of products do not.


def _apply_rows(matrix: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """matrix @ a for each row a."""
    return (matrix @ amps[:, :, None])[:, :, 0]


def _vdot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.vdot(a[k], b[k]) for each row k."""
    return (a.conj()[:, None, :] @ b[:, :, None])[:, 0, 0]


def _matrix_elements(matrix: np.ndarray, a: np.ndarray) -> np.ndarray:
    """<a|matrix|a> for each validated state row a, complex; any 2x2 matrix."""
    return _vdot_rows(a, _apply_rows(matrix, a))


def expectations(obs: Observable, amps) -> np.ndarray:
    """:func:`expectation` of obs on each state row of amps, bit for bit."""
    return _matrix_elements(obs.matrix, require_states(amps)).real


def _moments(matrix: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`expectation` and :func:`variance` of a Hermitian matrix or
    stack on each validated state row a, bit for bit, from one application;
    like the scalar form, each variance is the squared norm of the residual
    (matrix - <matrix>)|a>."""
    applied = _apply_rows(matrix, a)
    means = _vdot_rows(a, applied).real
    residual = applied - means[:, None] * a
    return means, np.maximum(_vdot_rows(residual, residual).real, 0.0)


def _half_commutator(a: np.ndarray, b: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The Robertson bound 0.5 |<[a, b]>| on each validated state row, for
    matrices or stacks a and b, bit for bit.  np.hypot rounds as abs() of a
    Python complex does; np.abs can differ from it in the last bit."""
    element = _matrix_elements(a @ b - b @ a, rows)
    return 0.5 * np.hypot(element.real, element.imag)


def commutator(a: Observable, b: Observable) -> np.ndarray:
    """ab - ba; anti-Hermitian for Hermitian inputs."""
    return a.matrix @ b.matrix - b.matrix @ a.matrix


def _pauli_sum(c0, cx, cy, cz) -> np.ndarray:
    """c0 I + cx sx + cy sy + cz sz: one matrix for scalar coefficients, an
    (N, 2, 2) stack for (N, 1, 1) coefficient arrays."""
    return c0 * IDENTITY.matrix + cx * SIGMA_X.matrix + cy * SIGMA_Y.matrix + cz * SIGMA_Z.matrix


def pauli_compose(c0: float, cx: float, cy: float, cz: float) -> Observable:
    """Hermitian operator c0 I + cx sx + cy sy + cz sz from real coefficients."""
    return Observable(_pauli_sum(c0, cx, cy, cz))


def apply(gate: UnitaryGate, state: StateVector) -> StateVector:
    """The state gate|state>."""
    return StateVector(gate.matrix @ state.amplitudes)


def normalized(values) -> StateVector:
    """Explicitly renormalize a raw complex 2-vector into a StateVector."""
    v = _checked_copy(values, (2,), "expected a complex 2-vector",
                      "cannot normalize non-finite amplitudes")
    norm = float(np.linalg.norm(v))
    if norm < 1e-150:
        raise InvariantViolation("cannot normalize a (near-)zero vector")
    return StateVector(v / norm)


def states_equal(a: StateVector, b: StateVector) -> bool:
    """Ray equality: true iff |<a|b>| exceeds 1 - norm tolerance."""
    return bool(abs(np.vdot(a.amplitudes, b.amplitudes)) > 1.0 - TOL.norm)


def eig_hermitian(obs: Observable) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigendecomposition of a Hermitian 2x2 operator.

    Returns (eigenvalues, eigenvectors) with eigenvalues in descending
    order and eigenvectors as the matching columns.  Each eigenvector is
    normalized and phase-fixed so its first non-negligible component is
    real and positive.
    """
    m = obs.matrix
    a = float(m[0, 0].real)
    d = float(m[1, 1].real)
    b = complex(m[0, 1])
    mid = 0.5 * (a + d)
    radius = math.hypot(0.5 * (a - d), abs(b))
    evals = np.array([mid + radius, mid - radius])

    if b == 0:
        if a >= d:
            vecs = np.eye(2, dtype=np.complex128)
        else:
            vecs = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    else:
        lam = evals[0]
        # Two algebraically equivalent eigenvector formulas; pick the
        # better-conditioned (larger) one and rescale by its biggest
        # component before normalizing, so subnormal entries cannot
        # underflow the norm.
        cand1 = np.array([b, lam - a], dtype=np.complex128)
        cand2 = np.array([lam - d, np.conj(b)], dtype=np.complex128)
        scale1 = max(abs(cand1[0]), abs(cand1[1]))
        scale2 = max(abs(cand2[0]), abs(cand2[1]))
        chosen = cand1 if scale1 >= scale2 else cand2
        scale = max(scale1, scale2)
        # Divide component-wise in real arithmetic: complex division by a
        # subnormal scale overflows inside numpy.
        v = np.empty(2, dtype=np.complex128)
        v.real = chosen.real / scale
        v.imag = chosen.imag / scale
        v = v / np.linalg.norm(v)
        # The second eigenvector of a Hermitian 2x2 is the orthogonal ray.
        w = np.array([-np.conj(v[1]), np.conj(v[0])])
        vecs = np.column_stack([v, w])

    for k in (0, 1):
        col = vecs[:, k]
        pivot = col[0] if abs(col[0]) > 1e-12 else col[1]
        vecs[:, k] = col * (np.conj(pivot) / abs(pivot))
    return evals, vecs


def binary_eigensystem(obs: Observable) -> EigenBasis:
    """The eigenbasis of an observable with outcomes +1 and -1: the columns
    of :func:`eig_hermitian`, plus first.

    Raises InvariantViolation unless the eigenvalues are +1 and -1 to
    within TOL.spectrum; a degenerate spectrum is named as such.
    """
    evals, vecs = eig_hermitian(obs)
    if abs(evals[0] - evals[1]) < TOL.spectrum:
        raise InvariantViolation(
            f"observable is degenerate (eigenvalues {evals[0]!r}, {evals[1]!r})"
        )
    if abs(evals[0] - 1.0) > TOL.spectrum or abs(evals[1] + 1.0) > TOL.spectrum:
        raise InvariantViolation(
            f"observable must have eigenvalues +1 and -1, got {evals[0]!r} and "
            f"{evals[1]!r}"
        )
    return EigenBasis(StateVector(vecs[:, 0]), StateVector(vecs[:, 1]))
