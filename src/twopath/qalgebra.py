"""Complex two-dimensional Hilbert-space primitives.

States, Hermitian observables, and unitaries are thin immutable wrappers
around validated numpy arrays; all operations are pure functions.
Constructors reject invalid input instead of repairing it.

Each value is checked where it enters the library, a stream seed by
:func:`require_seed` and a shot count by :func:`require_shots`.  The three
value types share one construction check, on their parts (below), and add
only their own norm, Hermiticity or unitarity test, on the same parts.
:class:`EigenBasis` is the one form of a +1/-1 observable's eigenbasis;
:func:`binary_eigensystem` solves for it.  Each 2x2 quantity has one entry,
:func:`apply`, :func:`inner`, :func:`odds`, :func:`moments` or :func:`robertson`
(a pair's moments and bound), for values or complex vectors, (N, 2) rows,
matrices or (N, 2, 2) stacks; :func:`expectation`, :func:`variance` and
:func:`commutator_bound` are one-state forms.  Each is one private formula in
real + - * of "parts" in a fixed order, a vector's (Re a0, Im a0, Re a1, Im a1)
or a matrix's entries row by row: Python floats for one (values cache theirs),
float64 columns for rows or stacks.  No other module sees parts.  Both round
once per operation and fuse none, so no result depends on the BLAS kernel.
A residual's complex modulus is math.hypot of the parts, and a NaN residual
fails, so no verdict depends on numpy's SIMD level either.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .tolerances import TOL

DEFAULT_SEED = 1  # the seed of a run that names none: RunConfig's and run_verification's


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


def require_shots(shots) -> int:
    """`shots` as an int, if it is an integer of at least 1; a float or a string is not."""
    try:
        value = operator.index(shots)
    except TypeError:
        raise InvariantViolation(f"shots must be an integer, got {shots!r}") from None
    if value < 1:
        raise InvariantViolation(f"shots must be >= 1, got {value}")
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


def _parts(values, ndim: int):
    """A value's cached parts, or complex vectors' (ndim 1) or matrices' (ndim 2): Python floats
    for one, float64 columns for N of them.  Two state rows have a matrix's shape, hence the ndim."""
    if isinstance(values, (StateVector, Observable, UnitaryGate)):
        return values._parts
    flat = np.ascontiguousarray(values, dtype=np.complex128).view(np.float64)
    return flat.ravel().tolist() if flat.ndim == ndim else np.ascontiguousarray(flat.reshape(-1, 4 * ndim).T)


def _apply(m, a) -> tuple:
    """M a: entry i is (M_i0 a0) + (M_i1 a1), each complex product the sum
    or difference of its two real products."""
    m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i = m
    a0r, a0i, a1r, a1i = a
    return ((m00r * a0r - m00i * a0i) + (m01r * a1r - m01i * a1i),
            (m00r * a0i + m00i * a0r) + (m01r * a1i + m01i * a1r),
            (m10r * a0r - m10i * a0i) + (m11r * a1r - m11i * a1i),
            (m10r * a0i + m10i * a0r) + (m11r * a1i + m11i * a1r))


def _re_inner(a, b):
    """Re<a|b>, the sum of the first and second components' terms."""
    a0r, a0i, a1r, a1i = a
    b0r, b0i, b1r, b1i = b
    return (a0r * b0r + a1r * b1r) + (a0i * b0i + a1i * b1i)


def _im_inner(a, b):
    """Im<a|b>, the sum of the first and second components' terms."""
    a0r, a0i, a1r, a1i = a
    b0r, b0i, b1r, b1i = b
    return (a0r * b0i + a1r * b1i) - (a0i * b0r + a1i * b1r)


def _moments(a, x) -> tuple:
    """The mean <a|M|a> and the variance of a Hermitian M from x = M a.

    The variance is the squared norm of the residual x - <M> a: algebraically
    <M^2> - <M>^2, but a sum of squares, never negative, and at full precision
    near eigenstates, where the textbook difference of two near-unit terms
    cancels catastrophically.
    """
    mean = _re_inner(a, x)
    residual = [xk - mean * ak for xk, ak in zip(x, a)]
    return mean, _re_inner(residual, residual)


def _bound(x, y):
    """The Robertson bound 0.5 |<[A, B]>| of Hermitian A and B from x = A a and
    y = B a, as <a|[A, B]|a> = <x|y> - <y|x> = 2i Im<x|y>."""
    return abs(_im_inner(x, y))


def _largest(moduli) -> float:
    """The largest of a residual's moduli, NaN if one is.  Each is math.hypot(Re, Im), or abs
    of a real or imaginary entry, which equals it: numpy's complex abs and hypot round
    differently at different SIMD levels, CPython's hypot does not."""
    # max() may pass over a NaN; the sum of moduli >= 0 is NaN only if one is
    return math.nan if math.isnan(sum(moduli)) else max(moduli)


def max_modulus(values) -> float:
    """The largest modulus of the complex entries of values, NaN if one is NaN."""
    z = np.asarray(values)
    return _largest(list(map(math.hypot, z.real.ravel().tolist(), z.imag.ravel().tolist())))


def unitarity_residual(gate) -> float:
    """max |U U^dag - I| of a gate or a 2x2 matrix: row k of U U^dag is U applied to row k's conjugate."""
    m = _parts(gate, 2)
    (r00, i00, r01, i01), (r10, i10, r11, i11) = (_apply(m, (p, -q, r, -s)) for p, q, r, s in (m[:4], m[4:]))
    return _largest(list(map(math.hypot, (r00 - 1.0, r01, r10, r11 - 1.0), (i00, i01, i10, i11))))


class Frozen:
    """Base of the immutable value types.

    A subclass lists its fields in ``__slots__``, the public ones in the
    order its ``__init__`` takes them, and sets each once, in ``__init__``,
    through ``object.__setattr__``; assigning or deleting one afterwards
    raises AttributeError, as for a frozen dataclass.  Values compare by
    identity; the repr shows the public fields, and a copy or an unpickled
    value is built by ``__init__`` from them, so it is checked again.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__ if not name.startswith("_"))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__slots__ if not name.startswith("_"))

    def _freeze(self, values, shape: tuple[int, ...], shape_error: str, entries: str) -> list:
        """Set the first field to a read-only complex copy of values with the given
        shape and finite entries and ``_parts`` to its parts, which it returns."""
        a = np.array(values, dtype=np.complex128, order="C")
        if a.shape != shape:
            raise InvariantViolation(f"{shape_error}, got shape {a.shape}")
        parts = a.view(np.float64).ravel().tolist()
        # a finite sum has finite terms; a sum that is not may have overflowed
        if not math.isfinite(sum(parts)) and not all(map(math.isfinite, parts)):
            raise InvariantViolation(f"{entries} must be finite (no NaN/Inf)")
        a.setflags(write=False)
        object.__setattr__(self, self.__slots__[0], a)
        object.__setattr__(self, "_parts", parts)
        return parts


class StateVector(Frozen):
    """Normalized complex 2-vector of probability amplitudes.

    The global phase carries no physics; compare states with
    :func:`states_equal`, never element-wise.
    """

    __slots__ = ("amplitudes", "_parts")
    amplitudes: np.ndarray

    def __init__(self, amplitudes) -> None:
        parts = self._freeze(amplitudes, (2,), "state must be a complex 2-vector", "state amplitudes")
        norm_sq = _re_inner(parts, parts)
        if not abs(norm_sq - 1.0) <= TOL.norm:
            raise InvariantViolation(f"state is not normalized: |a0|^2 + |a1|^2 = {norm_sq!r}")


class Observable(Frozen):
    """Hermitian 2x2 operator."""

    __slots__ = ("matrix", "_parts")
    matrix: np.ndarray

    def __init__(self, matrix) -> None:
        m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i = self._freeze(
            matrix, (2, 2), "observable must be 2x2", "observable entries")
        # the entries of M - M^dag: 2i Im m00, 2i Im m11, and m01 - conj(m10) and minus its conjugate
        residual = _largest((abs(m00i + m00i), abs(m11i + m11i), math.hypot(m01r - m10r, m01i + m10i)))
        if not residual <= TOL.herm:
            raise InvariantViolation(f"observable is not Hermitian: max |M - M^dag| = {residual:.3e}")


class UnitaryGate(Frozen):
    """Unitary 2x2 operator."""

    __slots__ = ("matrix", "_parts")
    matrix: np.ndarray

    def __init__(self, matrix) -> None:
        self._freeze(matrix, (2, 2), "gate must be 2x2", "gate entries")
        residual = unitarity_residual(self)
        if not residual <= TOL.unit:
            raise InvariantViolation(f"gate is not unitary: max |U U^dag - I| = {residual:.3e}")


class EigenBasis(Frozen):
    """The orthonormal eigenvectors of a +1/-1 observable: plus for the
    outcome +1, minus for -1."""

    __slots__ = ("plus", "minus")
    plus: StateVector
    minus: StateVector

    def __init__(self, plus: StateVector, minus: StateVector) -> None:
        overlap = abs(inner(plus, minus))
        if overlap > TOL.norm:
            raise InvariantViolation(
                f"eigenbasis is not orthogonal: |<plus|minus>| = {overlap:.3e}"
            )
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)


SIGMA_X = Observable(np.array([[0, 1], [1, 0]], dtype=np.complex128))
SIGMA_Y = Observable(np.array([[0, -1j], [1j, 0]], dtype=np.complex128))
SIGMA_Z = Observable(np.array([[1, 0], [0, -1]], dtype=np.complex128))
IDENTITY = Observable(np.eye(2, dtype=np.complex128))

#: Computational basis kets; the upper/lower interferometer arms.
KET_UPPER = StateVector(np.array([1, 0], dtype=np.complex128))
KET_LOWER = StateVector(np.array([0, 1], dtype=np.complex128))


def expectation(obs: Observable, state: StateVector) -> float:
    """<state|obs|state>, a real number within the spectrum of obs."""
    return _re_inner(state._parts, _apply(obs._parts, state._parts))


def variance(obs: Observable, state: StateVector) -> float:
    """<obs^2> - <obs>^2, always >= 0: the variance of :func:`moments`."""
    return _moments(state._parts, _apply(obs._parts, state._parts))[1]


def commutator_bound(a: Observable, b: Observable, state: StateVector) -> float:
    """0.5 |<[a, b]>| on one state: the floor under the product of the two spreads."""
    return _bound(_apply(a._parts, state._parts), _apply(b._parts, state._parts))


def require_states(amps) -> np.ndarray:
    """An (N, 2) complex array whose rows are normalized state amplitudes.

    Validates the whole batch at once, with the checks, norm formula and
    messages of :class:`StateVector`; the first bad row is named by its index.
    """
    a = np.asarray(amps, dtype=np.complex128)
    if a.ndim != 2 or a.shape[1] != 2:
        raise InvariantViolation(f"states must form an (N, 2) complex array, got shape {a.shape}")
    parts = _parts(a, 1)
    norm_sq = _re_inner(parts, parts)
    # A non-finite row has a NaN or infinite norm, which fails this test too.
    unit_norm = np.fabs(norm_sq - 1.0) <= TOL.norm
    if not unit_norm.all():
        if not np.isfinite(a).all():
            raise InvariantViolation("state amplitudes must be finite (no NaN/Inf)")
        k = np.flatnonzero(~unit_norm)[0]
        raise InvariantViolation(
            f"state {k} is not normalized: |a0|^2 + |a1|^2 = {float(norm_sq[k])!r}"
        )
    return a


def apply(matrix, amps) -> np.ndarray:
    """M applied to a state or complex 2-vector, or a matrix or stack to (N, 2) rows."""
    return np.array(_apply(_parts(matrix, 2), _parts(amps, 1))).T.copy().view(np.complex128)


def inner(a, b) -> complex:
    """<a|b> of two states or complex 2-vectors."""
    a, b = _parts(a, 1), _parts(b, 1)
    return complex(_re_inner(a, b), _im_inner(a, b))


def odds(a, b):
    """The Born odds |<a|b>|^2 of states, vectors or rows, as h * h of h = hypot(Re, Im)."""
    a, b = _parts(a, 1), _parts(b, 1)
    h = np.hypot(_re_inner(a, b), _im_inner(a, b))
    return h * h


def moments(obs, states) -> tuple:
    """The mean and variance of a Hermitian matrix, or a stack of one per row, on a state or rows."""
    a = _parts(states, 1)
    return _moments(a, _apply(_parts(obs, 2), a))


def robertson(a, b, states) -> tuple:
    """The means and the variances of Hermitian A and B on rows, each a pair
    (A's, B's), and the bound 0.5 |<[A, B]>|, from one application of the two."""
    s = _parts(states, 1)
    x = _apply(np.array([_parts(a, 2), _parts(b, 2)]).swapaxes(0, 1).reshape(8, 2, -1), s)
    return (*_moments(s, x), _bound([part[0] for part in x], [part[1] for part in x]))


def expectations(obs: Observable, amps) -> np.ndarray:
    """:func:`expectation` of obs on each state row of amps, bit for bit."""
    a = _parts(require_states(amps), 1)
    return _re_inner(a, _apply(_parts(obs, 2), a))


def _pauli_sum(c0, cx, cy, cz) -> np.ndarray:
    """c0 I + cx sx + cy sy + cz sz: one matrix for scalar coefficients, an
    (N, 2, 2) stack for (N, 1, 1) coefficient arrays."""
    return c0 * IDENTITY.matrix + cx * SIGMA_X.matrix + cy * SIGMA_Y.matrix + cz * SIGMA_Z.matrix


def pauli_compose(c0: float, cx: float, cy: float, cz: float) -> Observable:
    """Hermitian operator c0 I + cx sx + cy sy + cz sz from real coefficients."""
    return Observable(_pauli_sum(c0, cx, cy, cz))


def states_equal(a: StateVector, b: StateVector) -> bool:
    """Ray equality: true iff |<a|b>| exceeds 1 - norm tolerance."""
    return abs(inner(a, b)) > 1.0 - TOL.norm


def _over(re, im, s) -> tuple:
    """(re + i im) / s, s > 0, as numpy divides by s + 0j (Smith's method), signed zeros too."""
    sc = 1.0 / (s + 0.0 * 0.0)
    return (re + im * 0.0) * sc, (im - re * 0.0) * sc


def eig_hermitian(obs: Observable) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigendecomposition of a Hermitian 2x2 operator.

    Returns (eigenvalues, eigenvectors) with eigenvalues in descending
    order and eigenvectors as the matching columns.  Each eigenvector is
    normalized and phase-fixed so its first non-negligible component is
    real and positive.
    """
    a, _, br, bi, _, _, d, _ = obs._parts
    mid = 0.5 * (a + d)
    modulus_b = abs(complex(br, bi))
    radius = math.hypot(0.5 * (a - d), modulus_b)
    lam = mid + radius
    if br == 0 and bi == 0:
        columns = ((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0))[::1 if a >= d else -1]
    else:
        # Of the equivalent eigenvectors (b, lam - a) and (lam - d, conj(b)), take the larger,
        # scaled by its biggest component before normalizing, so subnormals cannot underflow
        scale1, scale2 = max(modulus_b, abs(lam - a)), max(abs(lam - d), modulus_b)
        chosen = (br, bi, lam - a, 0.0) if scale1 >= scale2 else (lam - d, 0.0, br, -bi)
        scale = max(scale1, scale2)
        v = [x / scale for x in chosen]
        norm = math.sqrt(_re_inner(v, v))
        v = (*_over(v[0], v[1], norm), *_over(v[2], v[3], norm))
        # The second eigenvector of a Hermitian 2x2 is the orthogonal ray.
        columns = (v, (-v[2], v[3], v[0], -v[1]))
    fixed = []
    for col in columns:
        pr, pi = col[:2] if abs(complex(*col[:2])) > 1e-12 else col[2:]
        qr, qi = _over(pr, -pi, abs(complex(pr, pi)))  # times q, as q I applied to the column
        fixed.extend(_apply((qr, qi, 0.0, 0.0, 0.0, 0.0, qr, qi), col))
    return np.array([lam, mid - radius]), np.array(fixed).view(np.complex128).reshape(2, 2).T.copy()


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
