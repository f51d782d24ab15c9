"""Robertson bound, saturation on the balanced manifold, sensitivity."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from support import (
    angles,
    count_calls,
    general_bound_rhs,
    hermitians,
    matmul_oracle,
    patch_everywhere,
    pure_states,
    random_hermitian,
    random_state,
)
from twopath import qalgebra
from twopath.interferometer import (
    balanced_state,
    interference_scan,
    path_operator,
    wave_operator,
)
from twopath.qalgebra import (
    InvariantViolation,
    KET_UPPER,
    SIGMA_X,
    SIGMA_Z,
    robertson,
    variance,
)
from twopath.uncertainty import (
    duality_report,
    robertson_bound,
    sensitivity,
)


def commutator_bound_oracle(a, b, amps) -> float:
    """Half the commutator expectation magnitude via explicit loops."""
    ab = matmul_oracle(a, b)
    ba = matmul_oracle(b, a)
    comm = [[ab[i][j] - ba[i][j] for j in range(2)] for i in range(2)]
    total = 0j
    for i in range(2):
        for j in range(2):
            total += complex(amps[i]).conjugate() * comm[i][j] * complex(amps[j])
    return 0.5 * abs(total)


class TestRobertsonBound:
    def test_vanishes_on_eigenstate(self):
        assert robertson_bound(SIGMA_Z, SIGMA_X, KET_UPPER) < 1e-15

    @given(phi=angles)
    def test_path_wave_bound_is_sine(self, phi):
        bound = robertson_bound(SIGMA_Z, wave_operator(0.0), balanced_state(phi))
        assert abs(bound - abs(math.sin(phi))) < 1e-12

    @given(a=hermitians(), b=hermitians(), state=pure_states())
    def test_matches_oracle_and_inequality(self, a, b, state):
        bound = robertson_bound(a, b, state)
        oracle = commutator_bound_oracle(a.matrix, b.matrix, state.amplitudes)
        assert abs(bound - oracle) < 1e-10
        assert variance(a, state) * variance(b, state) >= bound**2 - 1e-10

    @given(st.lists(st.tuples(hermitians(), hermitians(), pure_states()), min_size=1, max_size=6))
    def test_stacked_bound_equals_the_scalar_rows(self, triples):
        a, b = (np.array([t[k].matrix for t in triples]) for k in (0, 1))
        rows = np.array([t[2].amplitudes for t in triples])
        _, variances, bound = robertson(a, b, rows)
        assert bound.tolist() == [robertson_bound(*t) for t in triples]
        assert variances.tolist() == [[variance(t[k], t[2]) for t in triples] for k in (0, 1)]


class TestGeneralBoundRhs:
    def test_vanishes_at_north_pole(self):
        assert general_bound_rhs(0.0, KET_UPPER) < 1e-15

    @given(phi=angles)
    def test_balanced_specialization(self, phi):
        got = general_bound_rhs(0.0, balanced_state(phi))
        assert abs(got - abs(math.sin(phi))) < 1e-12

    def test_agrees_with_commutator_route(self):
        # 10^4 random (offset, state): two formula routes, one number
        rng = np.random.default_rng(101)
        for _ in range(10_000):
            phi0 = rng.uniform(-math.pi, math.pi)
            state = random_state(rng)
            direct = general_bound_rhs(phi0, state)
            via_commutator = robertson_bound(SIGMA_Z, wave_operator(phi0), state)
            assert abs(direct - via_commutator) < 1e-12


class TestDualityReport:
    def test_maximal_uncertainty_point(self):
        report = duality_report(math.pi / 2, 0.0)
        assert abs(report.delta_p - 1.0) < 1e-12
        assert abs(report.delta_w - 1.0) < 1e-12
        assert abs(report.bound - 1.0) < 1e-12
        assert report.saturated

    def test_vanishing_bound_at_eigenstate(self):
        report = duality_report(0.7, 0.7)
        assert report.delta_w < 1e-12
        assert report.bound < 1e-12
        assert abs(report.gap) < 1e-12

    def test_half_bound_point(self):
        report = duality_report(math.pi / 6, 0.0)
        assert abs(report.delta_w - 0.5) < 1e-12
        assert abs(report.bound - 0.5) < 1e-12

    @given(phi=angles, phi0=angles)
    def test_closed_forms_on_the_balanced_manifold(self, phi, phi0):
        report = duality_report(phi, phi0)
        assert abs(report.delta_p - 1.0) < 1e-12
        assert abs(report.delta_w - abs(math.sin(phi - phi0))) < 1e-12
        assert abs(report.bound - abs(math.sin(phi - phi0))) < 1e-12

    def test_each_angle_is_checked_once(self, monkeypatch):
        # phi here, phi0 inside the scan's wave_operator
        checks = count_calls(monkeypatch, qalgebra.require_finite_angle)
        report = duality_report(0.3, 1)
        assert [args[1] for args in checks] == ["phi", "phi0"]
        assert type(report.phi0) is float

    def test_non_finite_offset_is_named(self):
        with pytest.raises(InvariantViolation, match="phi0 must be a finite angle, got nan"):
            duality_report(0.3, math.nan)

    def test_saturation_sweep(self):
        # 10^4 random scan points: the product equals the bound
        rng = np.random.default_rng(59)
        pairs = rng.uniform(-math.pi, math.pi, size=(10_000, 2))
        worst = max(abs(duality_report(phi, phi0).gap) for phi, phi0 in pairs)
        assert worst < 1e-10


class TestDualityTable:
    @given(st.lists(angles, min_size=1, max_size=8), angles)
    def test_rows_equal_the_report_and_the_scalar_algebra(self, phis, phi0):
        scan = interference_scan(phi0, phis)
        path, wave = path_operator(), wave_operator(phi0)
        for k, phi in enumerate(phis):
            row = (scan.phi[k], scan.delta_p[k], scan.delta_w[k], scan.bound[k], scan.gap[k])
            report = duality_report(phi, phi0)
            assert row == (report.phi, report.delta_p, report.delta_w, report.bound, report.gap)
            assert report.phi0 == phi0
            state = balanced_state(phi)
            delta_p = math.sqrt(variance(path, state))
            delta_w = math.sqrt(variance(wave, state))
            bound = robertson_bound(path, wave, state)
            assert row == (phi, delta_p, delta_w, bound, delta_p * delta_w - bound)

    def test_rejects_a_non_finite_offset(self):
        with pytest.raises(InvariantViolation, match="phi0 must be a finite angle"):
            interference_scan(math.inf, [0.1, 0.2])

    def test_first_product_below_its_bound_is_named(self, monkeypatch):
        # Shrink the spreads of rows 2 and 3 so their products fall below
        # the bound; the error names the first of them.
        real = qalgebra._moments

        def shrunk(*args):
            means, values = real(*args)
            values[..., 2:4] *= 0.25  # rows 2 and 3 of both observables
            return means, values

        patch_everywhere(monkeypatch, real, shrunk)
        with pytest.raises(InvariantViolation, match=r"fell below its bound .* at phi = 0\.75$"):
            interference_scan(0.0, [0.25, 0.5, 0.75, 1.0])


class TestSensitivity:
    def test_maximal_at_quadrature(self):
        assert sensitivity(math.pi / 2, 0.0) == 1.0

    def test_vanishes_at_fringe_extremum(self):
        assert sensitivity(0.7, 0.7) == 0.0

    @given(phi=angles, phi0=angles)
    def test_coincides_with_wave_spread(self, phi, phi0):
        assert abs(sensitivity(phi, phi0) - duality_report(phi, phi0).delta_w) < 1e-12

    def test_matches_finite_difference_of_the_scan(self):
        # central difference of the interference pattern, step 1e-5
        step = 1e-5
        phi0 = 0.4
        for phi in np.linspace(-math.pi, math.pi, 64):
            scan = interference_scan(phi0, [float(phi) - step, float(phi) + step])
            slope = (scan.w_expect[1] - scan.w_expect[0]) / (2 * step)
            assert abs(abs(slope) - sensitivity(float(phi), phi0)) < 1e-6


class TestRobertsonInequalityAtScale:
    def test_never_violated_on_random_triples(self):
        # squared-quantity comparison avoids square-root cancellation
        rng = np.random.default_rng(4242)
        worst = 0.0
        for _ in range(20_000):
            a = random_hermitian(rng)
            b = random_hermitian(rng)
            state = random_state(rng)
            bound_sq = robertson_bound(a, b, state) ** 2
            var_product = variance(a, state) * variance(b, state)
            worst = max(worst, bound_sq - var_product)
        assert worst < 1e-10
