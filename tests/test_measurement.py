"""Born-rule sampling, sequential experiments, and their statistics."""

import math
import tracemalloc

import numpy as np
import pytest

from twopath.interferometer import balanced_state, path_operator, wave_operator
from twopath.measurement import (
    CHUNK_SHOTS,
    MeasurementOrder,
    measure,
    sequential_experiment,
    uniformity_test,
)
from twopath.qalgebra import (
    IDENTITY,
    InvariantViolation,
    KET_LOWER,
    KET_UPPER,
    eig_hermitian,
    pauli_compose,
    states_equal,
)
from twopath.rng import RandomStream


class TestMeasure:
    def test_certain_outcome(self):
        rec = measure(path_operator(), KET_UPPER, RandomStream(0))
        assert rec.outcome == 1.0
        assert states_equal(rec.post_state, KET_UPPER)

    def test_certain_negative_outcome(self):
        rec = measure(path_operator(), KET_LOWER, RandomStream(0))
        assert rec.outcome == -1.0
        assert states_equal(rec.post_state, KET_LOWER)

    def test_consumes_exactly_one_draw(self):
        rng = RandomStream(9)
        measure(path_operator(), balanced_state(0.3), rng)
        assert rng.counter == 1

    def test_post_state_is_an_eigenvector(self):
        rng = RandomStream(21)
        for _ in range(20):
            rec = measure(wave_operator(0.8), balanced_state(-0.4), rng)
            basis = wave_operator(0.8)
            # projecting again cannot move the state
            again = measure(basis, rec.post_state, rng)
            assert again.outcome == rec.outcome
            assert states_equal(again.post_state, rec.post_state)

    def test_rejects_degenerate_observable(self):
        with pytest.raises(InvariantViolation, match="degenerate"):
            measure(IDENTITY, KET_UPPER, RandomStream(0))

    def test_rejects_wrong_spectrum(self):
        with pytest.raises(InvariantViolation, match="eigenvalues"):
            measure(pauli_compose(0.0, 0.0, 0.0, 2.0), KET_UPPER, RandomStream(0))

    def test_repeated_measurement_idempotent(self):
        # 10^4 paired measurements: the second always repeats the first
        rng = RandomStream(77)
        obs = wave_operator(1.1)
        state = balanced_state(0.25)
        for _ in range(10_000):
            first = measure(obs, state, rng)
            second = measure(obs, first.post_state, rng)
            assert second.outcome == first.outcome


class TestSequentialExperiment:
    def test_matches_explicit_measure_loop(self):
        # the vectorized run must be stream-identical to literally
        # measuring twice per shot
        shots = 2000
        for order in MeasurementOrder:
            stats = sequential_experiment(order, 0.9, 0.2, shots, RandomStream(31))
            rng = RandomStream(31)
            if order is MeasurementOrder.P_THEN_W:
                first_obs, second_obs = path_operator(), wave_operator(0.2)
            else:
                first_obs, second_obs = wave_operator(0.2), path_operator()
            firsts, seconds = [], []
            for _ in range(shots):
                rec1 = measure(first_obs, balanced_state(0.9), rng)
                rec2 = measure(second_obs, rec1.post_state, rng)
                firsts.append(rec1.outcome)
                seconds.append(rec2.outcome)
            # the variance oracle is the exact 4 n+ n- / n^2 of the loop's
            # own counts, rounded once (np.var rounds more than once)
            first_plus = sum(1 for o in firsts if o > 0)
            second_plus = sum(1 for o in seconds if o > 0)
            assert stats.first_mean == float(np.mean(firsts))
            assert stats.first_variance == 4 * first_plus * (shots - first_plus) / shots**2
            assert stats.second_mean == float(np.mean(seconds))
            assert stats.second_variance == 4 * second_plus * (shots - second_plus) / shots**2
            assert stats.second_counts[0] == second_plus

    def test_path_first_randomizes_wave(self):
        shots = 200_000
        stats = sequential_experiment(
            MeasurementOrder.P_THEN_W, 0.9, 0.0, shots, RandomStream(44)
        )
        assert abs(stats.second_mean) < 4.0 / math.sqrt(shots)
        assert abs(stats.first_variance - 1.0) < 1e-3

    def test_wave_first_at_eigenstate_is_quiet_then_uniform(self):
        shots = 200_000
        stats = sequential_experiment(
            MeasurementOrder.W_THEN_P, 0.6, 0.6, shots, RandomStream(45)
        )
        assert stats.first_variance == 0.0
        chi2, ok = uniformity_test(stats.second_counts)
        assert ok

    def test_wave_first_variance_tracks_the_angle(self):
        shots = 200_000
        phi, phi0 = 2.2, 0.4
        stats = sequential_experiment(
            MeasurementOrder.W_THEN_P, phi, phi0, shots, RandomStream(46)
        )
        target = math.sin(phi - phi0) ** 2
        se = 2 * abs(math.cos(phi - phi0)) * abs(math.sin(phi - phi0)) / math.sqrt(shots)
        assert abs(stats.first_variance - target) < 4 * se + 16.0 / shots

    def test_deterministic_per_seed(self):
        a = sequential_experiment(MeasurementOrder.P_THEN_W, 1.0, 0.3, 5000, RandomStream(7))
        b = sequential_experiment(MeasurementOrder.P_THEN_W, 1.0, 0.3, 5000, RandomStream(7))
        assert a == b

    def test_randomization_for_random_settings(self):
        rng = np.random.default_rng(88)
        for order in MeasurementOrder:
            for _ in range(8):
                phi, phi0 = rng.uniform(-math.pi, math.pi, size=2)
                stats = sequential_experiment(
                    order, float(phi), float(phi0), 100_000,
                    RandomStream(int(rng.integers(1 << 32))),
                )
                chi2, ok = uniformity_test(stats.second_counts)
                assert ok, (order, phi, phi0, chi2)

    def test_rejects_zero_shots(self):
        with pytest.raises(InvariantViolation, match="shots"):
            sequential_experiment(MeasurementOrder.P_THEN_W, 0.0, 0.0, 0, RandomStream(1))


class TestChunking:
    def test_chunk_boundary_matches_one_batch(self):
        # a run that ends mid-chunk must see exactly the draws of one
        # 2 * shots batch: first draw of each pair decides the first
        # measurement, the second draw the second
        shots = 2 * CHUNK_SHOTS + 7
        phi, phi0, seed = 0.9, 0.2, 17
        for order in MeasurementOrder:
            rng = RandomStream(seed)
            stats = sequential_experiment(order, phi, phi0, shots, rng)
            assert rng.counter == 2 * shots

            if order is MeasurementOrder.P_THEN_W:
                first_obs, second_obs = path_operator(), wave_operator(phi0)
            else:
                first_obs, second_obs = wave_operator(phi0), path_operator()
            vecs1 = eig_hermitian(first_obs)[1]
            vecs2 = eig_hermitian(second_obs)[1]
            p1 = abs(np.vdot(vecs1[:, 0], balanced_state(phi).amplitudes)) ** 2
            p2 = [abs(np.vdot(vecs2[:, 0], vecs1[:, k])) ** 2 for k in (0, 1)]
            draws = RandomStream(seed).uniforms(2 * shots)
            first_plus = draws[0::2] < p1
            second_plus = draws[1::2] < np.where(first_plus, p2[0], p2[1])
            n1 = int(np.count_nonzero(first_plus))
            n2 = int(np.count_nonzero(second_plus))

            assert stats.second_counts == (n2, shots - n2)
            assert stats.first_mean == (2 * n1 - shots) / shots
            assert stats.second_mean == (2 * n2 - shots) / shots

    def test_peak_memory_is_flat_in_shots(self):
        def peak_bytes(shots):
            tracemalloc.start()
            try:
                sequential_experiment(
                    MeasurementOrder.W_THEN_P, 0.9, 0.2, shots, RandomStream(5)
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = peak_bytes(200_000)
        large = peak_bytes(4_000_000)
        # holding the 4e6-shot draws at once would take 64 MB
        assert large < 16 * 2**20
        assert large <= 2 * small


class TestUniformityTest:
    def test_perfect_split(self):
        chi2, ok = uniformity_test((500_000, 500_000))
        assert chi2 == 0.0
        assert ok

    def test_mild_imbalance_passes(self):
        # chi2 = 2 * 1000^2 / 500000 = 4.0
        chi2, ok = uniformity_test((501_000, 499_000))
        assert chi2 == 4.0
        assert ok

    def test_strong_imbalance_fails(self):
        # chi2 = 2 * 10000^2 / 500000 = 400
        chi2, ok = uniformity_test((510_000, 490_000))
        assert chi2 == 400.0
        assert not ok

    def test_rejects_empty_counts(self):
        with pytest.raises(InvariantViolation, match="at least one"):
            uniformity_test((0, 0))
