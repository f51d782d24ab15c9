"""Hilbert-space primitives: validation, operations, and their invariants."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from support import (
    angles,
    count_calls,
    expectation_oracle,
    hermitians,
    matmul_oracle,
    pauli_decompose,
    pure_states,
)
from twopath import qalgebra
from twopath.interferometer import (
    balanced_amplitudes,
    balanced_state,
    interference_scan,
    wave_operator,
)
from twopath.qalgebra import (
    _moments,
    IDENTITY,
    InvariantViolation,
    KET_LOWER,
    KET_UPPER,
    Observable,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    StateVector,
    UnitaryGate,
    commutator,
    eig_hermitian,
    expectation,
    expectations,
    normalized,
    pauli_compose,
    require_states,
    states_equal,
    variance,
)
from twopath.uncertainty import duality_report

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestConstructors:
    def test_state_rejects_unnormalized(self):
        with pytest.raises(InvariantViolation, match="not normalized"):
            StateVector(np.array([1.0, 1.0]))

    def test_state_rejects_nan(self):
        with pytest.raises(InvariantViolation, match="finite"):
            StateVector(np.array([np.nan, 0.0]))

    def test_state_rejects_wrong_shape(self):
        with pytest.raises(InvariantViolation, match="2-vector"):
            StateVector(np.array([1.0, 0.0, 0.0]))

    def test_observable_rejects_non_hermitian(self):
        with pytest.raises(InvariantViolation, match="not Hermitian"):
            Observable(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_observable_rejects_inf(self):
        with pytest.raises(InvariantViolation, match="finite"):
            Observable(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_gate_rejects_non_unitary(self):
        with pytest.raises(InvariantViolation, match="not unitary"):
            UnitaryGate(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_values_are_immutable(self):
        state = StateVector(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0
        with pytest.raises(ValueError):
            SIGMA_X.matrix[0, 0] = 5.0

    def test_constructors_do_not_renormalize(self):
        # off by more than the tolerance, even if only just
        with pytest.raises(InvariantViolation):
            StateVector(np.array([1.0 + 1e-5, 0.0]))

    def test_normalized_helper(self):
        state = normalized([3.0, 4.0j])
        assert abs(abs(state.amplitudes[0]) - 0.6) < 1e-15
        assert abs(abs(state.amplitudes[1]) - 0.8) < 1e-15

    def test_normalized_rejects_zero_vector(self):
        with pytest.raises(InvariantViolation, match="zero"):
            normalized([0.0, 0.0])

    @pytest.mark.parametrize("build, values, message", [
        (StateVector, [1.0, 0.0, 0.0], "state must be a complex 2-vector, got shape (3,)"),
        (StateVector, [math.inf, 0.0], "state amplitudes must be finite (no NaN/Inf)"),
        (Observable, np.eye(3), "observable must be 2x2, got shape (3, 3)"),
        (Observable, [[1.0, math.nan], [math.nan, 1.0]], "observable entries must be finite (no NaN/Inf)"),
        (UnitaryGate, np.eye(3), "gate must be 2x2, got shape (3, 3)"),
        (UnitaryGate, [[math.inf, 0.0], [0.0, 1.0]], "gate entries must be finite (no NaN/Inf)"),
        (normalized, [3.0, 4.0, 0.0], "expected a complex 2-vector, got shape (3,)"),
        (normalized, [math.nan, 1.0], "cannot normalize non-finite amplitudes"),
    ])
    def test_shape_and_finiteness_messages(self, build, values, message):
        with pytest.raises(InvariantViolation, match=re.escape(message) + "$"):
            build(values)


class TestExpectation:
    def test_eigenstate(self):
        assert expectation(SIGMA_Z, KET_UPPER) == 1.0

    def test_interference_value(self):
        # <W(0)> on the balanced state at pi/3 is cos(pi/3) = 1/2
        got = expectation(wave_operator(0.0), balanced_state(math.pi / 3))
        assert abs(got - 0.5) < 1e-12

    @given(obs=hermitians(), state=pure_states())
    def test_matches_explicit_sum(self, obs, state):
        want = expectation_oracle(obs.matrix, state.amplitudes)
        assert abs(expectation(obs, state) - want) < 1e-12

    @given(obs=hermitians(), state=pure_states())
    def test_within_spectrum(self, obs, state):
        evals, _ = eig_hermitian(obs)
        value = expectation(obs, state)
        assert evals[1] - 1e-12 <= value <= evals[0] + 1e-12


class TestVariance:
    @given(phi=angles)
    def test_path_spread_is_unity_on_balanced_states(self, phi):
        assert abs(variance(SIGMA_Z, balanced_state(phi)) - 1.0) < 1e-12

    def test_eigenstate_has_zero_variance(self):
        assert variance(SIGMA_Z, KET_LOWER) == 0.0

    def test_wave_variance_is_sine_squared(self):
        got = variance(wave_operator(0.0), balanced_state(math.pi / 4))
        assert abs(got - 0.5) < 1e-12

    @given(obs=hermitians(), state=pure_states())
    def test_non_negative(self, obs, state):
        assert variance(obs, state) >= 0.0

    @given(obs=hermitians(), state=pure_states())
    def test_matches_moment_difference(self, obs, state):
        sq = Observable(np.asarray(matmul_oracle(obs.matrix, obs.matrix)))
        want = expectation(sq, state) - expectation(obs, state) ** 2
        assert abs(variance(obs, state) - want) < 1e-10

    def test_zero_iff_eigenstate(self):
        evals, vecs = eig_hermitian(pauli_compose(0.3, 0.7, -0.2, 0.4))
        for k in (0, 1):
            assert variance(pauli_compose(0.3, 0.7, -0.2, 0.4), StateVector(vecs[:, k])) < 1e-10
        # a state well away from both eigenstates has strictly positive spread
        mixed = normalized(vecs[:, 0] + vecs[:, 1])
        assert variance(pauli_compose(0.3, 0.7, -0.2, 0.4), mixed) > 1e-6


class TestBatched:
    """The batched forms equal the scalar ones exactly, row by row."""

    @given(hermitians(), st.lists(pure_states(), min_size=1, max_size=6))
    def test_expectations_equal_the_scalar_rows(self, obs, states):
        amps = np.array([s.amplitudes for s in states])
        assert expectations(obs, amps).tolist() == [expectation(obs, s) for s in states]

    @given(hermitians(), st.lists(pure_states(), min_size=1, max_size=6))
    def test_variances_equal_the_scalar_rows(self, obs, states):
        amps = np.array([s.amplitudes for s in states])
        assert _moments(obs, require_states(amps))[1].tolist() == [variance(obs, s) for s in states]

    @given(st.lists(pure_states(), min_size=1, max_size=6), st.data())
    def test_nan_anywhere_in_a_batch_is_rejected(self, states, data):
        amps = np.array([s.amplitudes for s in states])
        row = data.draw(st.integers(0, len(states) - 1))
        col = data.draw(st.integers(0, 1))
        amps[row, col] = complex(math.nan, 0.0) if data.draw(st.booleans()) else complex(0.0, math.nan)
        with pytest.raises(InvariantViolation, match="finite"):
            expectations(SIGMA_X, amps)

    def test_unnormalized_row_is_named(self):
        amps = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.complex128)
        with pytest.raises(InvariantViolation, match="state 1 is not normalized"):
            expectations(SIGMA_Z, amps)

    def test_rejects_a_single_vector(self):
        with pytest.raises(InvariantViolation, match="shape"):
            expectations(SIGMA_Z, KET_UPPER.amplitudes)


class TestCheckedOnce:
    """State rows are validated where they come in from outside, and the
    rows the library builds itself are not checked again."""

    def test_scan_and_report_trust_the_states_they_build(self, monkeypatch):
        calls = count_calls(monkeypatch, qalgebra.require_states)
        interference_scan(0.6, np.linspace(-3, 3, 361))
        assert len(calls) == 0
        duality_report(0.3, 0.6)
        assert len(calls) == 0

    def test_expectations_validates_its_batch_once(self, monkeypatch):
        calls = count_calls(monkeypatch, qalgebra.require_states)
        expectations(SIGMA_X, balanced_amplitudes([0.1, 0.2, 0.3]))
        assert len(calls) == 1

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
    def test_balanced_rows_pass_the_state_check_at_any_finite_angle(self, phis):
        require_states(balanced_amplitudes(phis))


class TestCommutator:
    def test_sz_sx(self):
        got = commutator(SIGMA_Z, SIGMA_X)
        np.testing.assert_allclose(got, 2j * SIGMA_Y.matrix, atol=1e-15)

    def test_sz_sy(self):
        got = commutator(SIGMA_Z, SIGMA_Y)
        np.testing.assert_allclose(got, -2j * SIGMA_X.matrix, atol=1e-15)

    def test_self_commutator_vanishes(self):
        np.testing.assert_array_equal(commutator(SIGMA_Z, SIGMA_Z), np.zeros((2, 2)))

    @given(a=hermitians(), b=hermitians())
    def test_matches_elementwise_oracle(self, a, b):
        ab = matmul_oracle(a.matrix, b.matrix)
        ba = matmul_oracle(b.matrix, a.matrix)
        want = np.array(ab) - np.array(ba)
        np.testing.assert_allclose(commutator(a, b), want, atol=1e-12)

    @given(a=hermitians(), b=hermitians())
    def test_anti_hermitian(self, a, b):
        c = commutator(a, b)
        np.testing.assert_allclose(c.conj().T, -c, atol=1e-12)


class TestPauliDecompose:
    def test_wave_operator_at_quarter_turn(self):
        c0, cx, cy, cz = pauli_decompose(wave_operator(math.pi / 2))
        assert abs(c0) < 1e-12 and abs(cx) < 1e-12 and abs(cz) < 1e-12
        assert abs(cy - 1.0) < 1e-12

    def test_identity(self):
        assert pauli_decompose(IDENTITY) == (1.0, 0.0, 0.0, 0.0)

    @given(obs=hermitians())
    def test_round_trip(self, obs):
        c0, cx, cy, cz = pauli_decompose(obs)
        rebuilt = (
            c0 * np.eye(2)
            + cx * np.array([[0, 1], [1, 0]])
            + cy * np.array([[0, -1j], [1j, 0]])
            + cz * np.array([[1, 0], [0, -1]])
        )
        assert float(np.max(np.abs(rebuilt - obs.matrix))) < 1e-12


class TestStatesEqual:
    @given(state=pure_states(), gamma=angles)
    def test_global_phase_is_invisible(self, state, gamma):
        shifted = StateVector(state.amplitudes * np.exp(1j * gamma))
        assert states_equal(state, shifted)

    def test_distinct_rays_differ(self):
        assert not states_equal(KET_UPPER, KET_LOWER)
        assert not states_equal(KET_UPPER, balanced_state(0.0))


class TestEigHermitian:
    def test_sigma_z(self):
        evals, vecs = eig_hermitian(SIGMA_Z)
        np.testing.assert_array_equal(evals, [1.0, -1.0])
        np.testing.assert_array_equal(vecs, np.eye(2))

    def test_sigma_x(self):
        evals, vecs = eig_hermitian(SIGMA_X)
        np.testing.assert_allclose(evals, [1.0, -1.0], atol=1e-15)
        np.testing.assert_allclose(vecs[:, 0], [INV_SQRT2, INV_SQRT2], atol=1e-15)
        np.testing.assert_allclose(vecs[:, 1], [INV_SQRT2, -INV_SQRT2], atol=1e-15)

    def test_degenerate_identity(self):
        evals, vecs = eig_hermitian(IDENTITY)
        np.testing.assert_array_equal(evals, [1.0, 1.0])
        np.testing.assert_array_equal(vecs, np.eye(2))

    @given(obs=hermitians())
    def test_reconstructs_operator(self, obs):
        evals, vecs = eig_hermitian(obs)
        rebuilt = sum(
            evals[k] * np.outer(vecs[:, k], vecs[:, k].conj()) for k in (0, 1)
        )
        np.testing.assert_allclose(rebuilt, obs.matrix, atol=1e-10)

    @given(obs=hermitians())
    def test_orthonormal_descending_phase_fixed(self, obs):
        evals, vecs = eig_hermitian(obs)
        assert evals[0] >= evals[1]
        assert abs(np.vdot(vecs[:, 0], vecs[:, 1])) < 1e-12
        for k in (0, 1):
            assert abs(np.linalg.norm(vecs[:, k]) - 1.0) < 1e-12
            pivot = vecs[0, k] if abs(vecs[0, k]) > 1e-12 else vecs[1, k]
            assert pivot.imag == pytest.approx(0.0, abs=1e-12)
            assert pivot.real > 0
