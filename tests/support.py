"""Shared hypothesis strategies and independent oracle helpers.

The index-loop oracles avoid the package's own linear algebra: explicit
loops over plain Python complex numbers give test expectations a second,
unrelated code path.  `pauli_decompose`, `general_bound_rhs` and
`extract_phase_offset` reach library results by other formulas; only
tests compare against them, so they live here.
"""

import cmath
import math
import sys

import numpy as np
from hypothesis import strategies as st

from twopath import measurement, rng
from twopath.cli import SAMPLE_ROW
from twopath.complementarity import canonical_phase
from twopath.qalgebra import (
    InvariantViolation,
    Observable,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    StateVector,
    UnitaryGate,
    expectation,
    pauli_compose,
    require_finite_angle,
)
from twopath.tolerances import TOL

angles = st.floats(min_value=-25.0, max_value=25.0)
coefficients = st.floats(min_value=-2.0, max_value=2.0)


@st.composite
def pure_states(draw):
    """Arbitrary pure qubit states, including a random global phase."""
    theta = draw(st.floats(min_value=0.0, max_value=math.pi))
    xi = draw(angles)
    gamma = draw(angles)
    amps = np.array(
        [
            math.cos(0.5 * theta),
            math.sin(0.5 * theta) * np.exp(1j * xi),
        ],
        dtype=np.complex128,
    ) * np.exp(1j * gamma)
    return StateVector(amps)


@st.composite
def hermitians(draw):
    """Arbitrary Hermitian observables via Pauli coefficients."""
    c0 = draw(coefficients)
    cx = draw(coefficients)
    cy = draw(coefficients)
    cz = draw(coefficients)
    return pauli_compose(c0, cx, cy, cz)


def expectation_oracle(matrix, amps) -> float:
    """<a|M|a> as an explicit double sum over indices."""
    total = 0j
    for i in range(2):
        for j in range(2):
            total += complex(amps[i]).conjugate() * complex(matrix[i][j]) * complex(amps[j])
    return total.real


def matmul_oracle(a, b):
    """Element-wise 2x2 matrix product."""
    out = [[0j, 0j], [0j, 0j]]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                out[i][j] += complex(a[i][k]) * complex(b[k][j])
    return out


def overlap_sq_oracle(u, v) -> float:
    """|<u|v>|^2 as an explicit sum."""
    total = 0j
    for i in range(2):
        total += complex(u[i]).conjugate() * complex(v[i])
    return abs(total) ** 2


def shifter_oracle(phi: float) -> np.ndarray:
    """diag(e^{-i phi/2}, e^{+i phi/2}), entry by entry with cmath."""
    half = 0.5 * phi
    return np.array([[cmath.exp(-1j * half), 0j], [0j, cmath.exp(1j * half)]])


def pauli_decompose(obs: Observable) -> tuple[float, float, float, float]:
    """Coefficients (c0, cx, cy, cz) with obs = c0 I + cx sx + cy sy + cz sz.

    Coefficients are real for Hermitian input; obtained from the trace
    inner products with the Pauli basis.
    """
    m = obs.matrix
    c0 = 0.5 * (m[0, 0] + m[1, 1])
    cx = 0.5 * (m[0, 1] + m[1, 0])
    cy = 0.5j * (m[0, 1] - m[1, 0])
    cz = 0.5 * (m[0, 0] - m[1, 1])
    return (float(c0.real), float(cx.real), float(cy.real), float(cz.real))


def general_bound_rhs(phi0: float, state: StateVector) -> float:
    """The path/wave bound written out for offset phi0, on any state.

    Evaluates |<cos(phi0) sigma_y - sin(phi0) sigma_x>| directly; an
    independent route to the same number as feeding the path and wave
    observables through the commutator.
    """
    phi0 = require_finite_angle(phi0, "phi0")
    op = Observable(
        math.cos(phi0) * SIGMA_Y.matrix - math.sin(phi0) * SIGMA_X.matrix
    )
    return abs(expectation(op, state))


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


def random_state(rng: np.random.Generator) -> StateVector:
    """Haar-ish random pure state from a numpy Generator (test data only)."""
    theta = math.acos(1.0 - 2.0 * rng.uniform())
    xi = 2.0 * math.pi * rng.uniform()
    amps = np.array(
        [math.cos(0.5 * theta), math.sin(0.5 * theta) * np.exp(1j * xi)],
        dtype=np.complex128,
    )
    return StateVector(amps)


def random_hermitian(rng: np.random.Generator) -> Observable:
    coeffs = rng.uniform(-1.0, 1.0, size=4)
    return pauli_compose(*coeffs)


def perturbed_splitter(epsilon: float = 1e-3) -> UnitaryGate:
    """A slightly mis-rotated (still unitary) beam splitter, for fault tests."""
    angle = math.pi / 4 + epsilon
    c, s = math.cos(angle), math.sin(angle)
    return UnitaryGate(np.array([[c, s], [-s, c]], dtype=np.complex128))


def patch_everywhere(monkeypatch, fn, replacement) -> None:
    """Replace fn wherever a twopath module binds it (its own module and
    every ``from ... import`` of it)."""
    for name, module in list(sys.modules.items()):
        if name == "twopath" or name.startswith("twopath."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, replacement)


def count_calls(monkeypatch, fn) -> list:
    """Record the arguments of every call to fn, wherever a twopath module binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    patch_everywhere(monkeypatch, fn, counted)
    return calls


def swapped_lanes(*args):
    """The grid kernel with its two lanes swapped: a sampler fault."""
    for lo, hi, k in rng.uniform_grid(*args):
        yield lo, hi, k[:, ::-1]


def force_parts(monkeypatch, parts: int) -> list:
    """Make every sampler call split its rows as if `parts` CPUs were
    usable; returns the number of parts each call then ran, in call order."""
    ran = []
    run_parts = measurement._run_parts

    def recorded(count, bounds):
        ran.append(len(bounds))
        return run_parts(count, bounds)

    monkeypatch.setattr(measurement, "_usable_cpus", lambda: parts)
    monkeypatch.setattr(measurement, "_run_parts", recorded)
    return ran


def grid_failing(seed, exc, after: int, cap: int = 1000):
    """The grid kernel, raising `exc` in place of block `after` of the call
    whose first row draws from stream `seed`: one part of a sampler call.

    Every other call ends after `cap` blocks, so that a part nothing stops
    still ends.  Returns the kernel and a list that gets, per other call,
    a one-item list of the blocks it has yielded.
    """
    drawn = []

    def grid(seeds, *args):
        failing, mine = seeds[0] == seed, [0]
        if not failing:
            drawn.append(mine)
        for block, piece in enumerate(rng.uniform_grid(seeds, *args)):
            if failing and block == after:
                raise exc
            if block == cap:
                return
            mine[0] += 1
            yield piece

    return grid, drawn


def sample_lines(orders, phis, phi0s, shots, n_first, n_second) -> str:
    """The sample CSV lines of these rows as ``SAMPLE_ROW % row`` prints
    them, from Python's integers and the scalar statistics
    (:func:`measurement.outcome_moments`, :func:`measurement.uniformity_test`)."""
    lines = []
    for order, phi, phi0, n1, n2 in zip(orders, phis, phi0s, map(int, n_first), map(int, n_second)):
        row = (float(phi), float(phi0), order, shots,
               *measurement.outcome_moments(n1, shots), *measurement.outcome_moments(n2, shots),
               n2, shots - n2, *measurement.uniformity_test((n2, shots - n2)))
        lines.append(SAMPLE_ROW % row + "\n")
    return "".join(lines)
