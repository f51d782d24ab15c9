"""Beam splitter, phase shifter, balanced states, and the fringe scan."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from support import angles, pauli_decompose, shifter_oracle
from twopath import interferometer
from twopath.complementarity import derive_wave_eigenbasis
from twopath.interferometer import (
    balanced_amplitudes,
    balanced_state,
    beam_splitter,
    interference_scan,
    path_operator,
    phase_shifter,
    wave_operator,
)
from twopath.qalgebra import (
    InvariantViolation,
    KET_LOWER,
    KET_UPPER,
    SIGMA_X,
    SIGMA_Z,
    StateVector,
    eig_hermitian,
    expectation,
    states_equal,
    variance,
)
from twopath.uncertainty import robertson_bound


class TestPathOperator:
    def test_is_sigma_z(self):
        np.testing.assert_array_equal(path_operator().matrix, SIGMA_Z.matrix)

    def test_upper_arm_reads_plus_one(self):
        assert expectation(path_operator(), KET_UPPER) == 1.0

    def test_pauli_coefficients(self):
        assert pauli_decompose(path_operator()) == (0.0, 0.0, 0.0, 1.0)

    def test_blind_on_balanced_states(self):
        rng = np.random.default_rng(11)
        for phi in rng.uniform(-math.pi, math.pi, size=32):
            assert abs(expectation(path_operator(), balanced_state(phi))) < 1e-12
        # 10^4 random phases: <sz> never leaves zero
        rng = np.random.default_rng(7)
        for phi in rng.uniform(-40.0, 40.0, size=10_000):
            assert abs(expectation(path_operator(), balanced_state(phi))) < 1e-12


class TestPhaseShifter:
    def test_zero_phase_is_identity(self):
        np.testing.assert_array_equal(phase_shifter(0.0).matrix, np.eye(2))

    @given(a=angles, b=angles)
    def test_phases_add(self, a, b):
        # composition differs from the single shifter by a global phase only
        shifted = StateVector(phase_shifter(b).matrix @ balanced_state(0.0).amplitudes)
        composed = StateVector(phase_shifter(a).matrix @ shifted.amplitudes)
        assert states_equal(composed, balanced_state(a + b))

    @given(phi=angles)
    def test_generates_balanced_family(self, phi):
        shifted = StateVector(phase_shifter(phi).matrix @ balanced_state(0.0).amplitudes)
        assert states_equal(shifted, balanced_state(phi))

    def test_rejects_non_finite(self):
        with pytest.raises(InvariantViolation, match="finite"):
            phase_shifter(math.inf)

    # signed zeros, a huge phase, the smallest subnormal, then random phases
    PHASES = np.concatenate([
        [0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324],
        np.random.default_rng(15).uniform(-20.0, 20.0, 2000),
    ])

    def test_matrix_equals_the_cmath_construction_bit_for_bit(self):
        for phi in self.PHASES.tolist():
            assert phase_shifter(phi).matrix.tobytes() == shifter_oracle(phi).tobytes()

    def test_stack_equals_the_cmath_construction_bit_for_bit(self):
        # the stack verify's pipeline checks apply, one matrix per phase
        stack = interferometer._shifter_matrices(self.PHASES)
        assert stack.tobytes() == np.array([shifter_oracle(phi) for phi in self.PHASES.tolist()]).tobytes()


class TestBeamSplitter:
    def test_conjugates_path_into_wave(self):
        b = beam_splitter().matrix
        got = b.conj().T @ SIGMA_Z.matrix @ b
        assert float(np.max(np.abs(got - SIGMA_X.matrix))) < 1e-12

    def test_lower_port_splits_evenly(self):
        amp = np.vdot(KET_UPPER.amplitudes, beam_splitter().matrix @ KET_LOWER.amplitudes)
        assert abs(abs(amp) ** 2 - 0.5) < 1e-12

    def test_unitary(self):
        b = beam_splitter().matrix
        np.testing.assert_allclose(b @ b.conj().T, np.eye(2), atol=1e-15)

    def test_lower_port_becomes_zero_phase_balanced_state(self):
        out = StateVector(beam_splitter().matrix @ KET_LOWER.amplitudes)
        assert states_equal(out, balanced_state(0.0))


class TestBalancedState:
    def test_zero_phase(self):
        assert states_equal(balanced_state(0.0), StateVector(np.array([1.0, 1.0]) / math.sqrt(2.0)))

    @given(phi=angles)
    def test_equal_arm_probabilities(self, phi):
        a = balanced_state(phi).amplitudes
        p0, p1 = a.real**2 + a.imag**2
        assert abs(p0 - 0.5) < 1e-15
        assert p0 == p1

    @given(st.lists(angles, min_size=1, max_size=8))
    def test_batch_rows_are_the_scalar_states(self, phis):
        amps = balanced_amplitudes(phis)
        expected = np.array([balanced_state(phi).amplitudes for phi in phis])
        assert amps.tobytes() == expected.tobytes()

    @given(st.lists(angles, min_size=1, max_size=8), st.data())
    def test_batch_rejects_a_non_finite_angle_anywhere(self, phis, data):
        k = data.draw(st.integers(0, len(phis) - 1))
        phis[k] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        with pytest.raises(InvariantViolation, match="phi must be a finite angle"):
            balanced_amplitudes(phis)
        with pytest.raises(InvariantViolation, match="grid entry must be a finite angle"):
            interference_scan(0.3, phis)

    def test_batch_rejects_a_grid_that_is_not_1d(self):
        with pytest.raises(InvariantViolation,
                           match=re.escape("phi values must form a 1-D sequence, got shape (1, 2)")):
            balanced_amplitudes([[0.1, 0.2]])

    @given(phi0=angles)
    def test_matches_wave_eigenstate_at_setup_offset(self, phi0):
        assert states_equal(balanced_state(phi0), derive_wave_eigenbasis(phi0).plus)


class TestWaveOperator:
    def test_zero_offset_is_sigma_x(self):
        np.testing.assert_allclose(wave_operator(0.0).matrix, SIGMA_X.matrix, atol=1e-15)

    def test_unit_eigenvalues(self):
        rng = np.random.default_rng(5)
        for phi0 in rng.uniform(-math.pi, math.pi, size=32):
            evals, _ = eig_hermitian(wave_operator(phi0))
            np.testing.assert_allclose(evals, [1.0, -1.0], atol=1e-12)

    def test_equals_conjugated_path_measurement(self):
        b = beam_splitter().matrix
        after = b.conj().T @ SIGMA_Z.matrix @ b
        assert float(np.max(np.abs(wave_operator(0.0).matrix - after))) < 1e-12

    def test_traceless(self):
        assert abs(np.trace(wave_operator(1.234).matrix)) < 1e-15

    @given(phi0=angles)
    def test_periodic_in_the_offset(self, phi0):
        # equal as operators (not merely up to phase); limited only by the
        # rounding of phi0 + 2 pi itself
        now = wave_operator(phi0).matrix
        later = wave_operator(phi0 + 2.0 * math.pi).matrix
        assert float(np.max(np.abs(later - now))) < 1e-13


class TestInterferenceScan:
    def test_cardinal_points(self):
        scan = interference_scan(0.0, [0.0, math.pi / 2, math.pi])
        np.testing.assert_allclose(scan.w_expect, [1.0, 0.0, -1.0], atol=1e-12)

    def test_peak_sits_at_the_setup_offset(self):
        scan = interference_scan(math.pi / 2, [math.pi / 2])
        assert abs(scan.w_expect[0] - 1.0) < 1e-12

    def test_matches_direct_construction_route(self):
        # compare the batched scan against the directly written balanced
        # state fed through plain expectation, and against the cosine law
        rng = np.random.default_rng(23)
        for phi0 in rng.uniform(-math.pi, math.pi, size=8):
            grid = list(rng.uniform(-2 * math.pi, 2 * math.pi, size=16))
            scan = interference_scan(phi0, grid)
            wave = wave_operator(phi0)
            for phi, w_expect in zip(scan.phi, scan.w_expect):
                direct = expectation(wave, balanced_state(phi))
                assert abs(w_expect - direct) < 1e-12
                assert abs(w_expect - math.cos(phi - phi0)) < 1e-12

    def test_path_expectation_vanishes_identically(self):
        scan = interference_scan(0.7, list(np.linspace(-math.pi, math.pi, 101)))
        assert float(np.max(np.abs(scan.p_expect))) < 1e-12

    def test_unit_visibility_on_dense_grid(self):
        phi0 = 0.3
        grid = list(phi0 + np.linspace(-math.pi, math.pi, 1001))
        scan = interference_scan(phi0, grid)
        assert abs(float(np.max(np.abs(scan.w_expect))) - 1.0) < 1e-9

    @given(angles, st.lists(angles, min_size=1, max_size=8))
    def test_points_equal_the_scalar_shifter_route(self, phi0, grid):
        wave, path = wave_operator(phi0), path_operator()
        start = balanced_state(0.0)
        expected = []
        for phi in grid:
            state = StateVector(phase_shifter(phi).matrix @ start.amplitudes)
            delta_p = math.sqrt(variance(path, state))
            delta_w = math.sqrt(variance(wave, state))
            bound = robertson_bound(path, wave, state)
            expected.append((phi, expectation(wave, state), expectation(path, state),
                             delta_p, delta_w, bound, delta_p * delta_w - bound))
        columns = (c.tolist() for c in interference_scan(phi0, grid))
        assert list(zip(*columns)) == expected

    def test_rejects_empty_grid(self):
        with pytest.raises(InvariantViolation, match="non-empty"):
            interference_scan(0.0, [])


class TestFullPipeline:
    def test_fringe_is_cosine_with_unit_contrast(self):
        # characterization of the splitter convention: lower port in,
        # splitter, shifter, splitter, path readout traces cos(phi)
        grid = np.linspace(-math.pi, math.pi, 257)
        splitter = beam_splitter()
        fringe = []
        for phi in grid:
            state = StateVector(splitter.matrix @ KET_LOWER.amplitudes)
            state = StateVector(phase_shifter(float(phi)).matrix @ state.amplitudes)
            state = StateVector(splitter.matrix @ state.amplitudes)
            fringe.append(expectation(SIGMA_Z, state))
        fringe = np.array(fringe)
        np.testing.assert_allclose(fringe, np.cos(grid), atol=1e-12)
        assert abs(float(np.max(np.abs(fringe))) - 1.0) < 1e-9
