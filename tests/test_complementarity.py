"""Wave-eigenbasis derivation and mutual-unbiasedness testing."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from support import angles, extract_phase_offset, overlap_sq_oracle
from twopath import qalgebra
from twopath.complementarity import (
    EigenBasis,
    canonical_phase,
    derive_wave_eigenbasis,
    is_complementary,
    observable_from_eigensystem,
    path_eigenbasis,
)
from twopath.interferometer import wave_operator
from twopath.qalgebra import (
    InvariantViolation,
    KET_LOWER,
    KET_UPPER,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    StateVector,
    binary_eigensystem,
    expectation,
    pauli_compose,
    states_equal,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def tilted_observable(theta: float, phi: float):
    """The +1/-1 observable n.sigma along the unit vector at polar angle
    theta and azimuth phi."""
    return pauli_compose(
        0.0, math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)
    )


tilted_observables = st.builds(tilted_observable, angles, angles)


def rotated_basis(theta: float) -> EigenBasis:
    """Eigenbasis of cos(theta) sz + sin(theta) sx, written analytically.

    Independent of the library's eigensolver: the +1 eigenvector is
    (cos(theta/2), sin(theta/2)) and the -1 eigenvector its orthogonal.
    """
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    return EigenBasis(
        plus=StateVector(np.array([c, s], dtype=np.complex128)),
        minus=StateVector(np.array([-s, c], dtype=np.complex128)),
    )


class TestCanonicalPhase:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            (0.0, 0.0),
            (math.pi, math.pi),
            (-math.pi, math.pi),
            (3 * math.pi, math.pi),
            (2 * math.pi, 0.0),
            (-0.5, -0.5),
        ],
    )
    def test_wraps_into_half_open_interval(self, raw, expected):
        assert canonical_phase(raw) == pytest.approx(expected, abs=1e-12)

    @given(phi=angles)
    def test_always_lands_in_range(self, phi):
        wrapped = canonical_phase(phi)
        assert -math.pi < wrapped <= math.pi
        # same point on the circle
        assert abs(math.remainder(wrapped - phi, 2 * math.pi)) < 1e-9


class TestDeriveWaveEigenbasis:
    def test_zero_offset_closed_form(self):
        basis = derive_wave_eigenbasis(0.0)
        assert states_equal(
            basis.plus, StateVector(np.array([INV_SQRT2, INV_SQRT2]))
        )
        assert states_equal(
            basis.minus, StateVector(np.array([-INV_SQRT2, INV_SQRT2]))
        )

    @given(phi0=angles)
    def test_solves_the_defining_constraint(self, phi0):
        basis = derive_wave_eigenbasis(phi0)
        assert abs(expectation(SIGMA_Z, basis.plus)) < 1e-12
        assert abs(expectation(SIGMA_Z, basis.minus)) < 1e-12

    def test_unbiased_against_the_arms(self):
        rng = np.random.default_rng(3)
        for phi0 in rng.uniform(-math.pi, math.pi, size=32):
            basis = derive_wave_eigenbasis(phi0)
            for arm in (KET_UPPER, KET_LOWER):
                for vec in (basis.plus, basis.minus):
                    ov = overlap_sq_oracle(arm.amplitudes, vec.amplitudes)
                    assert abs(ov - 0.5) < 1e-12

    @given(phi0=angles)
    def test_matches_closed_form_up_to_phase(self, phi0):
        basis = derive_wave_eigenbasis(phi0)
        half = 0.5 * phi0
        closed_plus = StateVector(
            np.array([np.exp(-1j * half), np.exp(1j * half)]) * INV_SQRT2
        )
        closed_minus = StateVector(
            np.array([-np.exp(-1j * half), np.exp(1j * half)]) * INV_SQRT2
        )
        assert states_equal(basis.plus, closed_plus)
        assert states_equal(basis.minus, closed_minus)

    def test_constructive_completeness(self):
        # every state meeting the two constraints is reproduced by the
        # derivation at its extracted phase offset (10^4 random cases)
        rng = np.random.default_rng(17)
        for alpha, beta in rng.uniform(-math.pi, math.pi, size=(10_000, 2)):
            amps = np.array([np.exp(1j * alpha), np.exp(1j * beta)]) * INV_SQRT2
            state = StateVector(amps)
            phi0 = extract_phase_offset(state)
            assert states_equal(derive_wave_eigenbasis(phi0).plus, state)

    @given(phi0=angles)
    def test_extractor_round_trip(self, phi0):
        basis = derive_wave_eigenbasis(phi0)
        got = extract_phase_offset(basis.plus)
        assert -math.pi < got <= math.pi
        assert abs(math.remainder(got - phi0, 2 * math.pi)) < 1e-9

    def test_extractor_rejects_unbalanced_states(self):
        with pytest.raises(InvariantViolation, match="zero-path-expectation"):
            extract_phase_offset(KET_UPPER)


class TestObservableFromEigensystem:
    def test_zero_offset_gives_sigma_x(self):
        got = observable_from_eigensystem(derive_wave_eigenbasis(0.0))
        np.testing.assert_allclose(got.matrix, SIGMA_X.matrix, atol=1e-12)

    def test_quarter_offset_gives_sigma_y(self):
        got = observable_from_eigensystem(derive_wave_eigenbasis(math.pi / 2))
        np.testing.assert_allclose(got.matrix, SIGMA_Y.matrix, atol=1e-12)

    def test_path_basis_gives_sigma_z(self):
        got = observable_from_eigensystem(path_eigenbasis())
        np.testing.assert_allclose(got.matrix, SIGMA_Z.matrix, atol=1e-15)

    @given(phi0=angles)
    def test_assembles_to_pauli_form(self, phi0):
        got = observable_from_eigensystem(derive_wave_eigenbasis(phi0))
        want = wave_operator(phi0).matrix
        assert float(np.max(np.abs(got.matrix - want))) < 1e-12

    @given(phi0=angles)
    def test_traceless_and_squares_to_identity(self, phi0):
        w = observable_from_eigensystem(derive_wave_eigenbasis(phi0)).matrix
        assert abs(np.trace(w)) < 1e-12
        np.testing.assert_allclose(w @ w, np.eye(2), atol=1e-12)

    def test_rejects_non_orthogonal_basis(self):
        with pytest.raises(InvariantViolation, match="not orthogonal"):
            EigenBasis(plus=KET_UPPER, minus=KET_UPPER)

    @given(obs=tilted_observables)
    def test_spectral_round_trip(self, obs):
        # eigenbasis -> assembly -> eigenbasis returns the observable and its rays
        basis = binary_eigensystem(obs)
        rebuilt = observable_from_eigensystem(basis)
        np.testing.assert_allclose(rebuilt.matrix, obs.matrix, atol=1e-12)
        again = binary_eigensystem(rebuilt)
        assert states_equal(again.plus, basis.plus)
        assert states_equal(again.minus, basis.minus)

    def test_basis_type_is_the_qalgebra_one(self):
        assert EigenBasis is qalgebra.EigenBasis


class TestIsComplementary:
    def test_path_and_wave_bases_are_complementary(self):
        rng = np.random.default_rng(29)
        for phi0 in rng.uniform(-math.pi, math.pi, size=32):
            verdict = is_complementary(path_eigenbasis(), derive_wave_eigenbasis(phi0))
            assert verdict.complementary
            assert verdict.max_deviation < 1e-12

    def test_basis_is_never_complementary_to_itself(self):
        verdict = is_complementary(path_eigenbasis(), path_eigenbasis())
        assert not verdict.complementary
        assert verdict.max_deviation == 0.5

    def test_rotation_sweep_against_overlap_oracle(self):
        # deviation from the path basis follows |cos(theta)| / 2
        path = path_eigenbasis()
        for theta in np.linspace(0.0, math.pi, 64):
            basis = rotated_basis(float(theta))
            verdict = is_complementary(path, basis)
            oracle_dev = max(
                abs(overlap_sq_oracle(u.amplitudes, v.amplitudes) - 0.5)
                for u in (path.plus, path.minus)
                for v in (basis.plus, basis.minus)
            )
            assert verdict.max_deviation == pytest.approx(oracle_dev, abs=1e-15)
            assert verdict.max_deviation == pytest.approx(
                abs(math.cos(theta)) / 2.0, abs=1e-12
            )
            assert verdict.complementary == (abs(math.cos(theta)) / 2.0 < 1e-10)

    @given(a=tilted_observables, b=tilted_observables)
    def test_symmetric(self, a, b):
        basis_a, basis_b = binary_eigensystem(a), binary_eigensystem(b)
        forward = is_complementary(basis_a, basis_b)
        backward = is_complementary(basis_b, basis_a)
        assert forward.complementary == backward.complementary
        assert abs(forward.max_deviation - backward.max_deviation) < 1e-12
