"""Shared hypothesis strategies and independent oracle helpers.

The oracles intentionally avoid the package's own linear algebra: they
use explicit index loops over plain Python complex numbers so that test
expectations are computed through a second, unrelated code path.
"""

import math
import sys

import numpy as np
from hypothesis import strategies as st

from twopath.qalgebra import Observable, StateVector, UnitaryGate, pauli_compose

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


def count_calls(monkeypatch, fn) -> list:
    """Record the arguments of every call to fn, wherever a twopath module
    binds it (its own module and every ``from ... import`` of it)."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "twopath" or name.startswith("twopath."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls
