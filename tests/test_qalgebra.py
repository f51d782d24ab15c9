"""Hilbert-space primitives: validation, operations, and their invariants."""

import copy
import hashlib
import json
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from support import (
    SIMD_LEVELS,
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
    _pauli_sum,
    IDENTITY,
    InvariantViolation,
    KET_LOWER,
    KET_UPPER,
    Observable,
    SIGMA_X,
    SIGMA_Z,
    EigenBasis,
    StateVector,
    UnitaryGate,
    binary_eigensystem,
    eig_hermitian,
    expectation,
    expectations,
    moments,
    pauli_compose,
    require_states,
    states_equal,
    variance,
)
from twopath.tolerances import TOL
from twopath.uncertainty import duality_report

INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Pauli coefficients with both signed zeros drawn often: a stacked sum must
# keep the sign of every zero entry that the scalar sum gives.
signed_coefficients = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))


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

    def test_gate_with_a_nan_residual_is_not_unitary(self):
        # finite entries whose products overflow, so U U^dag - I holds inf - inf
        message = "gate is not unitary: max |U U^dag - I| = nan"
        with pytest.raises(InvariantViolation, match=re.escape(message) + "$"):
            UnitaryGate(np.array([[1e200j, 1e200], [1e200, 1e200j]]))

    def test_values_are_immutable(self):
        state = StateVector(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0
        with pytest.raises(ValueError):
            SIGMA_X.matrix[0, 0] = 5.0

    @pytest.mark.parametrize("value, field", [
        (KET_UPPER, "amplitudes"), (SIGMA_X, "matrix"), (UnitaryGate(np.eye(2)), "matrix"),
        (EigenBasis(KET_UPPER, KET_LOWER), "plus"),
    ])
    def test_values_are_frozen_and_copy_through_their_constructors(self, value, field):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, getattr(value, field))
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(clone) is type(value) and clone is not value
            assert repr(clone) == repr(value)

    def test_constructors_do_not_renormalize(self):
        # off by more than the tolerance, even if only just
        with pytest.raises(InvariantViolation):
            StateVector(np.array([1.0 + 1e-5, 0.0]))

    @pytest.mark.parametrize("build, values, message", [
        (StateVector, [1.0, 0.0, 0.0], "state must be a complex 2-vector, got shape (3,)"),
        (StateVector, [math.inf, 0.0], "state amplitudes must be finite (no NaN/Inf)"),
        (Observable, np.eye(3), "observable must be 2x2, got shape (3, 3)"),
        (Observable, [[1.0, math.nan], [math.nan, 1.0]], "observable entries must be finite (no NaN/Inf)"),
        (UnitaryGate, np.eye(3), "gate must be 2x2, got shape (3, 3)"),
        (UnitaryGate, [[math.inf, 0.0], [0.0, 1.0]], "gate entries must be finite (no NaN/Inf)"),
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
        mixed = StateVector((vecs[:, 0] + vecs[:, 1]) * INV_SQRT2)
        assert variance(pauli_compose(0.3, 0.7, -0.2, 0.4), mixed) > 1e-6


class TestBatched:
    """The batched forms equal the scalar ones exactly, row by row."""

    @given(hermitians(), st.lists(pure_states(), min_size=1, max_size=6))
    def test_expectations_equal_the_scalar_rows(self, obs, states):
        amps = np.array([s.amplitudes for s in states])
        assert expectations(obs, amps).tolist() == [expectation(obs, s) for s in states]

    @given(hermitians(), st.lists(st.tuples(hermitians(), pure_states()), min_size=1, max_size=6))
    def test_variances_equal_the_scalar_rows(self, obs, rows):
        # One matrix for every row, then a stack with one observable per row.
        states = [s for _, s in rows]
        amps = require_states(np.array([s.amplitudes for s in states]))
        assert moments(obs, amps)[1].tolist() == [variance(obs, s) for s in states]
        stack = np.array([o.matrix for o, _ in rows])
        assert moments(stack, amps)[1].tolist() == [variance(o, s) for o, s in rows]

    @given(st.lists(st.tuples(*[signed_coefficients] * 4), min_size=1, max_size=6))
    def test_stacked_pauli_sum_equals_pauli_compose(self, rows):
        stack = _pauli_sum(*np.array(rows).T[:, :, None, None])
        for matrix, coeffs in zip(stack, rows):
            assert matrix.tobytes() == pauli_compose(*coeffs).matrix.tobytes()

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


def norm_verdict(check, amps):
    """None if check accepts amps, else the |a0|^2 + |a1|^2 its message names."""
    try:
        check(amps)
    except InvariantViolation as exc:
        return str(exc).rsplit("= ", 1)[1]
    return None


class TestNormEdge:
    """StateVector and require_states decide normalization by one formula, so
    they agree on every state, whatever the BLAS kernel."""

    def test_both_checks_agree_at_the_tolerance(self):
        # The first state sits where a BLAS dot product with fused multiply-adds
        # and a per-component sum of squares give different verdicts.
        rng = np.random.default_rng(20261020)
        theta, xi, gamma = rng.uniform(0.0, 2 * math.pi, (3, 2000))
        unit = np.column_stack([np.cos(theta / 2), np.sin(theta / 2) * np.exp(1j * xi)])
        # norm^2 within 8 ulp of 1 + TOL.norm, the edge of acceptance
        scale = np.sqrt(1.0 + TOL.norm + np.finfo(float).eps * rng.integers(-8, 9, 2000))
        rows = [[(-0.565903884586309+0.34914900572809165j), (0.6268930029536421+0.40602084682682893j)],
                *(unit * (scale * np.exp(1j * gamma))[:, None])]
        verdicts = [(norm_verdict(StateVector, row), norm_verdict(lambda a: require_states([a]), row))
                    for row in rows]
        assert [k for k, (one, batch) in enumerate(verdicts) if one != batch] == []
        assert verdicts[0] == (None, None)
        # both verdicts occur, so the batch straddles the edge
        assert 100 < sum(one is None for one, _ in verdicts) < 1900


#: Builds an Observable from each matrix on stdin, as JSON [re, im] pairs,
#: and prints None where it is accepted, else its message, then the numpy
#: SIMD levels in use.
HERMITIAN_EDGE_CHILD = """
import json, sys
from numpy._core import _multiarray_umath as umath
from twopath.qalgebra import InvariantViolation, Observable
verdicts = []
for rows in json.load(sys.stdin):
    try:
        Observable([[complex(*z) for z in row] for row in rows])
        verdicts.append(None)
    except InvariantViolation as exc:
        verdicts.append(str(exc))
print(json.dumps([verdicts, [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]]]))
"""


class TestHermitianEdge:
    """Observable takes its Hermiticity residual by math.hypot, so whether a
    matrix at the 1e-12 edge is accepted does not depend on numpy's SIMD
    level, as it did under complex np.abs."""

    def edge_matrices(self):
        # off-diagonal entries ~1e-12, so their difference e is fine-grained;
        # |e| within 8 ulp of TOL.herm, the edge of acceptance
        rng = np.random.default_rng(20261021)
        n = 2000
        c = TOL.herm * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        size = TOL.herm * (1.0 + np.finfo(float).eps * rng.integers(-8, 9, n))
        e = size * np.exp(1j * rng.uniform(0.0, 2 * math.pi, n))
        diagonal = rng.uniform(-2.0, 2.0, (2, n))
        return [[[d0, z01], [z10, d1]] for d0, d1, z01, z10
                in zip(*diagonal.tolist(), (c + e).tolist(), np.conj(c).tolist())]

    def oracle(self, rows):
        """Accepted, by plain Python complex arithmetic and math.hypot."""
        diffs = [complex(rows[i][j]) - complex(rows[j][i]).conjugate() for i in range(2) for j in range(2)]
        return max(math.hypot(d.real, d.imag) for d in diffs) <= TOL.herm

    def test_verdicts_do_not_depend_on_the_simd_level(self):
        matrices = self.edge_matrices()
        want = [self.oracle(rows) for rows in matrices]
        # both verdicts occur, so the batch straddles the edge
        assert 100 < sum(want) < 1900
        payload = json.dumps([[[(complex(z).real, complex(z).imag) for z in row] for row in rows]
                              for rows in matrices])
        env = {**os.environ, "PYTHONPATH": str(Path(qalgebra.__file__).resolve().parents[1])}
        # every level on, then the highest off, and so on down to the baseline
        for k in range(len(SIMD_LEVELS), -1, -1):
            off = SIMD_LEVELS[k:]
            run = subprocess.run([sys.executable, "-c", HERMITIAN_EDGE_CHILD], input=payload,
                                 capture_output=True, text=True, timeout=120,
                                 env={**env, "NPY_DISABLE_CPU_FEATURES": " ".join(off)})
            assert (run.returncode, run.stderr) == (0, "")
            verdicts, simd = json.loads(run.stdout)
            assert simd == SIMD_LEVELS[:k]
            assert [verdict is None for verdict in verdicts] == want, off


class TestUnitaryEdge:
    """UnitaryGate's verdict on gates whose residual straddles TOL.unit is that
    of plain Python complex arithmetic and math.hypot."""

    def edge_gates(self):
        # random unitaries scaled by 1 + delta, so |U U^dag - I| ~ 2 delta is
        # within ~1e-15 of TOL.unit, a few rounding errors of the entries
        rng = np.random.default_rng(20261022)
        n = 2000
        alpha, beta, gamma, theta = rng.uniform(0.0, 2 * math.pi, (4, n))
        a, b = np.cos(theta) * np.exp(1j * beta), np.sin(theta) * np.exp(1j * gamma)
        scale = np.exp(1j * alpha) * (1.0 + 0.5 * TOL.unit * (1.0 + 2e-3 * rng.uniform(-1.0, 1.0, n)))
        gates = scale[:, None, None] * np.array([[a, b], [-np.conj(b), np.conj(a)]]).transpose(2, 0, 1)
        return gates.tolist()

    def oracle(self, rows):
        """Accepted, by plain Python complex arithmetic and math.hypot; a NaN is not."""
        u = [[complex(z) for z in row] for row in rows]
        entries = [u[i][0] * u[k][0].conjugate() + u[i][1] * u[k][1].conjugate() - (i == k)
                   for i in range(2) for k in range(2)]
        return all(math.hypot(z.real, z.imag) <= TOL.unit for z in entries)

    def test_verdicts_are_the_oracles(self):
        gates = self.edge_gates()
        want = [self.oracle(rows) for rows in gates]
        # both verdicts occur, so the batch straddles the edge
        assert 100 < sum(want) < 1900
        got = []
        for rows in gates:
            try:
                got.append(UnitaryGate(rows) is not None)
            except InvariantViolation as exc:
                assert str(exc).startswith("gate is not unitary: max |U U^dag - I| = ")
                got.append(False)
        assert got == want


class TestCheckedOnce:
    """State rows are validated where they come in from outside, and the
    rows the library builds itself are not checked again."""

    def test_scan_and_report_trust_the_states_they_build(self, monkeypatch):
        calls = count_calls(monkeypatch, qalgebra.require_states)
        interference_scan(0.6, np.linspace(-3, 3, 361))
        assert len(calls) == 0
        duality_report(0.3, 0.6)
        assert len(calls) == 0

    def test_scan_checks_its_grid_once(self, monkeypatch):
        calls = count_calls(monkeypatch, qalgebra.require_finite_angles)
        interference_scan(0.6, np.linspace(-3, 3, 361))
        assert len(calls) == 1

    def test_expectations_validates_its_batch_once(self, monkeypatch):
        calls = count_calls(monkeypatch, qalgebra.require_states)
        expectations(SIGMA_X, balanced_amplitudes([0.1, 0.2, 0.3]))
        assert len(calls) == 1

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
    def test_balanced_rows_pass_the_state_check_at_any_finite_angle(self, phis):
        require_states(balanced_amplitudes(phis))


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

    def test_diagonal_with_the_larger_entry_below(self):
        # b = 0 and a < d: the eigenvectors are the arms, lower first
        evals, vecs = eig_hermitian(Observable(-SIGMA_Z.matrix))
        np.testing.assert_array_equal(evals, [1.0, -1.0])
        np.testing.assert_array_equal(vecs, [[0.0, 1.0], [1.0, 0.0]])
        assert binary_eigensystem(Observable(-SIGMA_Z.matrix)).plus.amplitudes.tolist() == [0, 1]

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

    def test_keeps_its_bytes(self):
        # one digest over Pauli sums whose coefficients run from subnormal to
        # 1e300, with zeros of both signs, 300 of them diagonal (either entry
        # the larger), then the wave operators at TestBinaryEigensystem.OFFSETS
        rng = np.random.default_rng(20261022)
        size = 10.0 ** rng.uniform(-323.0, 300.0, (1800, 4))
        size[rng.random((1800, 4)) < 0.15] = 0.0
        size[:300, 1:3] = 0.0
        coeffs = size * rng.choice([-1.0, 1.0], (1800, 4))
        digest = hashlib.sha256()
        for obs in (*(pauli_compose(*row) for row in coeffs.tolist()),
                    *map(wave_operator, TestBinaryEigensystem.OFFSETS)):
            evals, vecs = eig_hermitian(obs)
            digest.update(evals.tobytes() + vecs.tobytes())
        assert digest.hexdigest() == "02b608fbc141921a61b2661b0ecf9119de7b66a390f9654501ff76cf46f991dd"

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


class TestBinaryEigensystem:
    OFFSETS = [
        0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi, 1e300, -1e300, 5e-324, -5e-324,
        *np.random.default_rng(13).uniform(-math.pi, math.pi, size=200).tolist(),
    ]

    def test_basis_holds_the_eig_hermitian_columns_bit_for_bit(self):
        for obs in (SIGMA_Z, SIGMA_X, *map(wave_operator, self.OFFSETS)):
            basis = binary_eigensystem(obs)
            _, vecs = eig_hermitian(obs)
            assert isinstance(basis, EigenBasis)
            assert basis.plus.amplitudes.tobytes() == vecs[:, 0].tobytes()
            assert basis.minus.amplitudes.tobytes() == vecs[:, 1].tobytes()

    def test_rejects_spectra_other_than_plus_and_minus_one(self):
        with pytest.raises(InvariantViolation, match="observable is degenerate"):
            binary_eigensystem(IDENTITY)
        with pytest.raises(InvariantViolation, match="must have eigenvalues \\+1 and -1"):
            binary_eigensystem(pauli_compose(0.0, 0.0, 0.0, 2.0))
