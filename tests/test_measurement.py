"""Born-rule sampling, sequential experiments, and their statistics."""

import functools
import math
import os
import random
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from support import count_calls, force_parts, grid_failing, swapped_lanes
from twopath import measurement, qalgebra, rng
from twopath.interferometer import balanced_state, path_operator, wave_operator
from twopath.measurement import (
    CHUNK_SHOTS,
    MeasurementOrder,
    measure,
    outcome_moments,
    sequential_counts,
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
from twopath.cli import RunConfig, cmd_sample
from twopath.rng import FINE_STEPS, RandomStream, child_seeds
from twopath.verify import run_verification


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


SHOTS_ENTRIES = {
    "sequential_counts": lambda shots: sequential_counts(
        [MeasurementOrder.P_THEN_W], [0.1], [0.2], shots, np.array([1], dtype=np.uint64)),
    "sequential_experiment": lambda shots: sequential_experiment(
        MeasurementOrder.P_THEN_W, 0.1, 0.2, shots, RandomStream(1)),
    "run_verification": lambda shots: run_verification(shots=shots),
    "RunConfig": lambda shots: RunConfig(shots=shots),
}


class TestShotsRule:
    """Every entry that takes a shot count applies qalgebra.require_shots."""

    # a float or a string would otherwise reach numpy's draws
    @pytest.mark.parametrize("shots", [1.5, "3", np.float64(2.0)])
    @pytest.mark.parametrize("entry", SHOTS_ENTRIES)
    def test_every_entry_rejects_a_non_integer(self, entry, shots):
        with pytest.raises(InvariantViolation) as raised:
            SHOTS_ENTRIES[entry](shots)
        assert str(raised.value) == f"shots must be an integer, got {shots!r}"

    @pytest.mark.parametrize("shots", [0, -3, np.int64(0)])
    @pytest.mark.parametrize("entry", SHOTS_ENTRIES)
    def test_every_entry_rejects_a_count_below_one(self, entry, shots):
        with pytest.raises(InvariantViolation) as raised:
            SHOTS_ENTRIES[entry](shots)
        assert str(raised.value) == f"shots must be >= 1, got {int(shots)}"

    def test_integer_types_are_read_as_ints(self):
        for shots in (np.uint64(5), np.int64(5)):
            assert qalgebra.require_shots(shots) == int(shots)
            assert type(qalgebra.require_shots(shots)) is int

    def test_experiment_counts_shots_as_an_int(self):
        # an int64 shot count would make the counter an int64, which wraps
        # at 2^63 where an int grows
        stream = RandomStream(1)
        stream.counter = 2**63 - 4
        stats = sequential_experiment(MeasurementOrder.P_THEN_W, 0.1, 0.2, np.int64(10), stream)
        assert stream.counter == 2**63 + 16 and type(stream.counter) is int
        assert stats.shots == 10 and type(stats.shots) is int


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


@functools.lru_cache(maxsize=None)
def reference_odds(order, phi0):
    """The first observable's eigenvectors and the second outcome's +1
    odds after each first outcome, as TestChunking derives them."""
    if order is MeasurementOrder.P_THEN_W:
        first_obs, second_obs = path_operator(), wave_operator(phi0)
    else:
        first_obs, second_obs = wave_operator(phi0), path_operator()
    vecs1 = eig_hermitian(first_obs)[1]
    vecs2 = eig_hermitian(second_obs)[1]
    return vecs1, [abs(np.vdot(vecs2[:, 0], vecs1[:, k])) ** 2 for k in (0, 1)]


def reference_counts(order, phi, phi0, shots, stream):
    """+1 counts of one row from its own stream, thresholded as in
    TestChunking: the first draw of each pair decides the first
    measurement, the second draw the second."""
    vecs1, p2 = reference_odds(order, phi0)
    p1 = abs(np.vdot(vecs1[:, 0], balanced_state(phi).amplitudes)) ** 2
    draws = stream.uniforms(2 * shots)
    first_plus = draws[0::2] < p1
    second_plus = draws[1::2] < np.where(first_plus, p2[0], p2[1])
    return int(np.count_nonzero(first_plus)), int(np.count_nonzero(second_plus))


class TestBlocks:
    """The sampler draws many rows per block; every row must still see
    exactly its own stream, at and around each block edge.  The rows run
    as one part here, so the edges are where the comments put them;
    TestParts splits them."""

    SEED = (1 << 64) - 1

    @pytest.fixture(autouse=True)
    def one_part(self, monkeypatch):
        force_parts(monkeypatch, 1)

    def test_block_size_fits_the_counts_and_the_fine_table(self):
        # a packed block counts each row's shots by one uint16 add.reduce,
        # which would wrap without an error from 2^16 shots a row on
        assert CHUNK_SHOTS // 2 < 2**16
        # so a whole piece takes one add of positions and no remainder
        assert CHUNK_SHOTS % FINE_STEPS == 0

    @pytest.mark.parametrize(
        "shots, steps, order",
        [
            # CHUNK_SHOTS rows per block, then a last block of one
            (1, CHUNK_SHOTS + 1, "pw"),
            # CHUNK_SHOTS // 7 rows per block, then a partial last block
            (7, 2500, "both"),
            # CHUNK_SHOTS // 1000 rows per block, then a partial last block
            (1000, 50, "pw"),
            (1000, 50, "wp"),
            (1000, 25, "both"),
            # packed rows shorter than one run of the fine table of steps, of
            # one run, and of one run and a remainder of one shot
            (FINE_STEPS - 1, 5, "both"),
            (FINE_STEPS, 5, "both"),
            (FINE_STEPS + 1, 5, "both"),
            # packed rows of runs and a remainder, FINE_STEPS < shots < CHUNK_SHOTS // 2
            (2 * FINE_STEPS + 5, 4, "both"),
            (3 * FINE_STEPS - 1, 2, "both"),
            # the longest packed rows, two a block, of whole runs
            (CHUNK_SHOTS // 2, 2, "both"),
            # one row a block, of one piece shorter than a block: runs and a
            # remainder, whole runs, and runs and a remainder of one shot
            (6 * FINE_STEPS - 1, 3, "both"),
            (6 * FINE_STEPS, 3, "both"),
            (6 * FINE_STEPS + 1, 3, "both"),
            # one row per block from here on, in pieces of CHUNK_SHOTS shots:
            # around one piece, then last pieces of FINE_STEPS - 1, FINE_STEPS
            # and FINE_STEPS + 1 shots and, after two whole pieces, of three
            # runs and a remainder of 7
            (CHUNK_SHOTS - 1, 3, "both"),
            (CHUNK_SHOTS, 3, "both"),
            (CHUNK_SHOTS + 1, 3, "both"),
            (CHUNK_SHOTS + FINE_STEPS - 1, 3, "both"),
            (CHUNK_SHOTS + FINE_STEPS, 3, "both"),
            (CHUNK_SHOTS + FINE_STEPS + 1, 3, "both"),
            (2 * CHUNK_SHOTS + 3 * FINE_STEPS + 7, 2, "both"),
            # after two whole pieces, a last piece of a remainder alone
            (2 * CHUNK_SHOTS + 7, 2, "both"),
        ],
    )
    def test_rows_equal_their_own_streams(self, shots, steps, order):
        phi0 = 0.6
        config = RunConfig(phi0=phi0, steps=steps, shots=shots, seed=self.SEED, order=order)
        lines = "".join(cmd_sample(config)).splitlines()[1:]
        orders = list(MeasurementOrder) if order == "both" else [MeasurementOrder(order)]
        assert len(lines) == steps * len(orders)
        for row, line in enumerate(lines):
            fields = line.split(",")
            phi = float(fields[0])
            stream = RandomStream(child_seeds(self.SEED, row))
            n1, n2 = reference_counts(orders[row % len(orders)], phi, phi0, shots, stream)
            assert int(fields[8]) == n2, row
            assert float(fields[4]) == (2 * n1 - shots) / shots, row


class TestRows:
    """Each row of one sampler call is a whole experiment: its own order,
    phase, offset and stream."""

    SEED = 2024
    OFFSETS = (0.6, -1.3, 2.9, 0.0)

    def rows(self, count):
        rng = np.random.default_rng(count)
        orders = [list(MeasurementOrder)[k] for k in rng.integers(2, size=count)]
        phis = rng.uniform(-math.pi, math.pi, size=count)
        phi0s = [self.OFFSETS[k] for k in rng.integers(len(self.OFFSETS), size=count)]
        return orders, phis, phi0s, child_seeds(self.SEED, np.arange(count, dtype=np.uint64))

    def test_mixed_rows_equal_their_own_streams(self):
        # 1000 shots put 32 rows in a block, so 40 rows cross a block edge
        shots = 1000
        orders, phis, phi0s, seeds = self.rows(40)
        # a value in place of a member, and offsets that repeat across orders
        orders[5] = orders[5].value
        assert len(set(phi0s)) < len(phi0s) and len({*map(MeasurementOrder, orders)}) == 2
        n_first, n_second = sequential_counts(orders, phis, phi0s, shots, seeds)
        for row in range(40):
            want = reference_counts(
                MeasurementOrder(orders[row]), float(phis[row]), phi0s[row], shots,
                RandomStream(child_seeds(self.SEED, row)),
            )
            assert (int(n_first[row]), int(n_second[row])) == want, row

    @pytest.mark.parametrize("count", [8, 40, 400])
    def test_eigensystems_are_solved_once_per_order_and_offset(self, monkeypatch, count):
        _, phis, _, seeds = self.rows(count)
        orders = [order for order in MeasurementOrder for _ in range(count // 2)]
        phi0s = [self.OFFSETS[row % 4] for row in range(count)]
        solves = count_calls(monkeypatch, qalgebra.binary_eigensystem)
        sequential_counts(orders, phis, phi0s, 10, seeds)
        # the path basis once, and the wave basis for 4 offsets x 2 orders
        assert len(solves) == 9

    def test_rows_of_unequal_length_are_rejected(self):
        orders, phis, phi0s, seeds = self.rows(4)
        with pytest.raises(InvariantViolation, match="4 orders, 4 phis, 3 phi0s and 4 seeds"):
            sequential_counts(orders, phis, phi0s[:3], 10, seeds)

    def test_non_finite_offset_is_named(self):
        orders, phis, phi0s, seeds = self.rows(4)
        with pytest.raises(InvariantViolation, match="phi0 must be a finite angle, got nan"):
            sequential_counts(orders, phis, phi0s[:3] + [math.nan], 10, seeds)

    @pytest.mark.parametrize(
        "seeds", [[5], np.array([5], dtype=np.int64), np.array([5.0])], ids=["list", "int64", "float64"]
    )
    def test_seeds_must_be_a_uint64_array(self, seeds):
        with pytest.raises(InvariantViolation, match=r"uint64 array, as rng\.child_seeds"):
            sequential_counts(["pw"], [0.1], [0.0], 10, seeds)

    def test_unknown_order_is_rejected(self):
        orders, phis, phi0s, seeds = self.rows(4)
        with pytest.raises(InvariantViolation, match="order must be pw or wp, got 'qq'"):
            sequential_counts(orders[:3] + ["qq"], phis, phi0s, 10, seeds)


def reference_thresholds(p):
    """ceil(p * 2^53) in exact Python integers."""
    return math.ceil(math.ldexp(float(p), 53))


class TestBand:
    """The second outcome's two after-odds differ by rounding at some
    offsets, so a one-k band between their thresholds takes the higher one
    only after the matching first outcome.  A real draw lands in it with
    probability 2^-53, so these tests feed the sampler crafted raw words,
    none with its low 11 bits all zero, so that the words must be compared
    as the draws (raw >> 11) * 2^-53 they stand for."""

    PHI = 0.3

    def crafted_rows(self, rows):
        """For (order, phi0) rows: the crafted (rows, 2, 7) raw words, the
        53-bit thresholds of each row's after-odds, and the counts of the
        double-domain rule u2 < where(first_plus, pa, pb)."""
        draws, thresholds, want = [], [], []
        for order, phi0 in rows:
            vecs1, (pa, pb) = reference_odds(order, phi0)
            p1 = abs(np.vdot(vecs1[:, 0], balanced_state(self.PHI).amplitudes)) ** 2
            ka, kb = reference_thresholds(pa), reference_thresholds(pb)
            low, high = min(ka, kb), max(ka, kb)
            # each first outcome, then second draws below, in and above the
            # band; more in the band after -1, so taking the wrong outcome's
            # threshold there moves the count
            first = [0] * 3 + [2**53 - 1] * 4
            second = [low - 1, low, high, low - 1, low, low, high]
            # each word's k, then low bits from one to all eleven set
            words = [[k << 11 | bits for k, bits in zip(lane, (1, 0x7FF, 0x400, 0x2A5, 0x7FF, 1, 0x3FF))]
                     for lane in (first, second)]
            draws.append(words)
            thresholds.append((ka, kb))
            u1, u2 = ((np.array(lane, dtype=np.uint64) >> np.uint64(11)) * 2.0**-53 for lane in words)
            first_plus = u1 < p1
            assert first_plus.tolist() == [True] * 3 + [False] * 4
            second_plus = u2 < np.where(first_plus, pa, pb)
            want.append((int(np.count_nonzero(first_plus)), int(np.count_nonzero(second_plus))))
        return np.array(draws, dtype=np.uint64), thresholds, want

    def count(self, monkeypatch, rows, draws, pieces):
        """sequential_counts over `rows` with the grid kernel yielding
        draws[lo:hi, :, start:stop] for each (lo, hi, start, stop) piece."""
        def crafted(seeds, counter, n, size, lanes):
            assert (len(seeds), lanes, n) == (len(draws), 2, draws.shape[2])
            for lo, hi, start, stop in pieces:
                yield lo, hi, draws[lo:hi, :, start:stop]

        monkeypatch.setattr(measurement, "uniform_grid", crafted)
        orders, phi0s = zip(*rows)
        seeds = np.zeros(len(rows), dtype=np.uint64)
        n_first, n_second = sequential_counts(orders, [self.PHI] * len(rows), phi0s,
                                              draws.shape[2], seeds)
        return list(zip(n_first.tolist(), n_second.tolist()))

    def test_packed_block(self, monkeypatch):
        rows = [(order, phi0) for phi0 in (2.88, 0.6, -2.97) for order in MeasurementOrder]
        draws, thresholds, want = self.crafted_rows(rows)
        # 2.88 and -2.97 give a band, 0.6 none
        assert [abs(ka - kb) for ka, kb in thresholds] == [1, 1, 0, 0, 1, 1]
        # the band decides the count: the lower threshold alone gives 2
        assert [n2 for _, n2 in want] == [4, 4, 2, 2, 4, 4]
        assert self.count(monkeypatch, rows, draws, [(0, len(rows), 0, 7)]) == want

    def test_row_in_pieces(self, monkeypatch):
        rows = [(MeasurementOrder.W_THEN_P, 2.88)]
        draws, _, want = self.crafted_rows(rows)
        # the same shots again in a second order, so pieces cut across the pattern
        draws = np.concatenate([draws, draws[:, :, ::-1]], axis=2)
        want = [(2 * want[0][0], 2 * want[0][1])]
        pieces = [(0, 1, start, min(start + 5, 14)) for start in range(0, 14, 5)]
        assert self.count(monkeypatch, rows, draws, pieces) == want


class TestCertainOutcomes:
    """At phi = phi0 the wave-first odds are exactly 1, so K = 2^53 and no
    uint64 threshold lies above every raw word; the sampler sets such
    lanes after the compare."""

    SEED = 5
    # a certain first outcome, and a row with a band (TestBand)
    ROWS = [(MeasurementOrder.W_THEN_P, 3.0, 3.0), (MeasurementOrder.P_THEN_W, 0.3, 0.1)]

    @pytest.mark.parametrize("parts", [1, 2])
    def test_certain_row_beside_a_banded_row(self, monkeypatch, parts):
        ran = force_parts(monkeypatch, parts)
        odds = count_calls(monkeypatch, rng.draw_thresholds)
        orders, phis, phi0s = zip(*self.ROWS)
        seeds = child_seeds(self.SEED, np.arange(len(self.ROWS), dtype=np.uint64))
        shots = CHUNK_SHOTS + 1
        n_first, n_second = sequential_counts(orders, phis, phi0s, shots, seeds)
        assert ran == [parts]
        (_, t_low, t_high), (certain, _, _) = rng.draw_thresholds(*odds[0])
        assert certain.tolist() == [True, False] and t_low[1] != t_high[1]
        assert n_first[0] == shots
        for row, (order, phi, phi0) in enumerate(self.ROWS):
            want = reference_counts(order, phi, phi0, shots, RandomStream(child_seeds(self.SEED, row)))
            assert (int(n_first[row]), int(n_second[row])) == want, row

    @pytest.mark.parametrize("parts", [1, 2])
    def test_packed_rows_count_every_shot(self, monkeypatch, parts):
        # CHUNK_SHOTS // 2 shots, the most a row of a packed block has: two
        # rows a block, so the certain rows count CHUNK_SHOTS // 2 shots in
        # one block sum
        ran = force_parts(monkeypatch, parts)
        rows = self.ROWS * 2  # two blocks, one per part at two parts
        orders, phis, phi0s = zip(*rows)
        seeds = child_seeds(self.SEED, np.arange(len(rows), dtype=np.uint64))
        shots = CHUNK_SHOTS // 2
        n_first, n_second = sequential_counts(orders, phis, phi0s, shots, seeds)
        assert ran == [parts]
        assert n_first[0] == n_first[2] == shots == CHUNK_SHOTS // 2
        for row, (order, phi, phi0) in enumerate(rows):
            want = reference_counts(order, phi, phi0, shots, RandomStream(child_seeds(self.SEED, row)))
            assert (int(n_first[row]), int(n_second[row])) == want, row

    def test_the_largest_word_is_below_certain_odds(self, monkeypatch):
        # raw 2^64 - 1 is below no uint64 threshold, but its draw
        # 1 - 2^-53 is below p = 1 (and not below the second odds, ~1/2)
        words = np.full((1, 2, 5), 2**64 - 1, dtype=np.uint64)
        monkeypatch.setattr(measurement, "uniform_grid", lambda *args: iter([(0, 1, words)]))
        n_first, n_second = sequential_counts(["wp"], [3.0], [3.0], 5, np.zeros(1, dtype=np.uint64))
        assert (int(n_first[0]), int(n_second[0])) == (5, 0)


class TestLaneFaults:
    """Faults in the lane layout of the grid kernel make the sampler
    disagree with the float oracle on rows that cross CHUNK_SHOTS, whether
    the rows run as one part or as two."""

    SEED = 99
    SHOTS = CHUNK_SHOTS + 1

    swapped_lanes = staticmethod(swapped_lanes)

    @pytest.fixture(autouse=True, params=[1, 2], ids=["1part", "2parts"])
    def parts(self, request, monkeypatch):
        ran = force_parts(monkeypatch, request.param)
        yield
        assert ran == [request.param]

    @staticmethod
    def counter_reuse(seeds, counter, n, size, lanes):
        # each piece starts at counter + done, not counter + lanes * done
        for done in range(0, n, size):
            yield from rng.uniform_grid(seeds, counter + done, min(size, n - done), size, lanes)

    def mismatches(self):
        rows = [(order, phi) for phi in (0.4, -2.0) for order in MeasurementOrder]
        orders, phis = zip(*rows)
        seeds = child_seeds(self.SEED, np.arange(len(rows), dtype=np.uint64))
        n_first, n_second = sequential_counts(orders, phis, [0.6] * len(rows), self.SHOTS, seeds)
        return [
            row for row, (order, phi) in enumerate(rows)
            if (n_first[row], n_second[row])
            != reference_counts(order, phi, 0.6, self.SHOTS,
                                RandomStream(child_seeds(self.SEED, row)))
        ]

    def test_correct_kernel_agrees(self):
        assert self.mismatches() == []

    @pytest.mark.parametrize("fault", ["swapped_lanes", "counter_reuse"])
    def test_fault_is_caught(self, monkeypatch, fault):
        monkeypatch.setattr(measurement, "uniform_grid", getattr(self, fault))
        assert self.mismatches()


class TestParts:
    """The rows of a call run as contiguous parts, one per usable CPU; the
    counts must not depend on how many parts there are, and a part that
    fails must end the whole call, leaving no thread behind."""

    SEED = 31

    def rows(self, count):
        # banded offsets among them, as in TestBand
        offsets = (0.6, 2.88, -2.97)
        orders = [list(MeasurementOrder)[row % 2] for row in range(count)]
        phis = np.linspace(-3.0, 3.0, count)
        phi0s = [offsets[row % 3] for row in range(count)]
        return orders, phis, phi0s, child_seeds(self.SEED, np.arange(count, dtype=np.uint64))

    def counts(self, monkeypatch, parts, count, shots, counter):
        ran = force_parts(monkeypatch, parts)
        orders, phis, phi0s, seeds = self.rows(count)
        threads = threading.active_count()
        result = sequential_counts(orders, phis, phi0s, shots, seeds, counter)
        assert threading.active_count() == threads
        assert ran == [parts]
        return result

    @pytest.mark.parametrize("counter", [0, 12_345])
    @pytest.mark.parametrize(
        "count, shots",
        [
            # 7 rows that each cross CHUNK_SHOTS, which 2, 3 and 5 do not divide
            (7, CHUNK_SHOTS + 3),
            # 203 rows packed CHUNK_SHOTS // 1000 to a block
            (203, 1000),
        ],
    )
    def test_counts_do_not_depend_on_the_part_count(self, monkeypatch, count, shots, counter):
        want = self.counts(monkeypatch, 1, count, shots, counter)
        if count == 7:
            orders, phis, phi0s, seeds = self.rows(count)
            for row in range(count):
                stream = RandomStream(child_seeds(self.SEED, row))
                stream.counter = counter
                got = int(want[0][row]), int(want[1][row])
                assert got == reference_counts(orders[row], phis[row], phi0s[row], shots, stream)
        # more parts than cores, with the threads switching as often as they can
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for parts in (2, 3, 5):
                got = self.counts(monkeypatch, parts, count, shots, counter)
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "count, shots, parts",
        [
            (1, 10 * CHUNK_SHOTS, 1),  # one row
            (8, 2000, 1),  # fewer shots than one block
            (6, 4_000_000, 2),  # sample-deep: 2 parts of 3 rows
            (8, 200_000, 2),  # 8 rows of 200000 shots: 2 parts of 4
        ],
    )
    def test_part_count(self, monkeypatch, count, shots, parts):
        ran = force_parts(monkeypatch, 2)
        seeds = child_seeds(self.SEED, np.arange(count, dtype=np.uint64))
        # the counts are not needed: a grid kernel that draws nothing
        monkeypatch.setattr(measurement, "uniform_grid", lambda *args: iter(()))
        sequential_counts(["pw"] * count, [0.1] * count, [0.6] * count, shots, seeds)
        assert ran == [parts]

    def test_usable_cpus_is_the_affinity_mask(self):
        if hasattr(os, "sched_getaffinity"):
            assert measurement._usable_cpus() == len(os.sched_getaffinity(0))
        assert measurement._usable_cpus() >= 1

    def fail(self, monkeypatch, exc, failing_row):
        """sequential_counts over 4 rows of 2^62 shots in 2 parts, the part
        that starts at `failing_row` raising `exc` in place of its block 3:
        the other part must stop long before its grid kernel's cap."""
        force_parts(monkeypatch, 2)
        orders, phis, phi0s, seeds = self.rows(4)
        grid, drawn = grid_failing(seeds[failing_row], exc, after=3)
        monkeypatch.setattr(measurement, "uniform_grid", grid)
        threads = threading.active_count()
        with pytest.raises(type(exc)) as raised:
            sequential_counts(orders, phis, phi0s, 1 << 62, seeds)
        assert threading.active_count() == threads
        assert len(drawn) == 1 and drawn[0][0] < 100
        return raised.value

    def test_a_failing_worker_ends_the_call(self, monkeypatch):
        exc = MemoryError("worker")
        assert self.fail(monkeypatch, exc, 2) is exc

    def test_an_interrupted_caller_stops_the_workers(self, monkeypatch):
        exc = KeyboardInterrupt()
        assert self.fail(monkeypatch, exc, 0) is exc

    def test_an_interrupt_outranks_a_failed_worker(self, monkeypatch):
        # the worker raises first, then the caller is interrupted: Ctrl-C
        # must still reach the caller as KeyboardInterrupt
        force_parts(monkeypatch, 2)
        orders, phis, phi0s, seeds = self.rows(4)
        worker, failed = [], threading.Event()

        def grid(part_seeds, *args):
            if part_seeds[0] != seeds[0]:
                worker.append(threading.current_thread())
                failed.set()
                raise MemoryError("worker")
            assert failed.wait(10)
            worker[0].join(10)
            raise KeyboardInterrupt
            yield

        monkeypatch.setattr(measurement, "uniform_grid", grid)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            sequential_counts(orders, phis, phi0s, 1 << 62, seeds)
        assert threading.active_count() == threads

    def test_an_assert_in_a_worker_fails_the_call(self, monkeypatch):
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)

        def crafted(*args):
            assert threading.current_thread() is threading.main_thread(), "drawn in a worker"
            yield from rng.uniform_grid(*args)

        force_parts(monkeypatch, 2)
        monkeypatch.setattr(measurement, "uniform_grid", crafted)
        orders, phis, phi0s, seeds = self.rows(4)
        with pytest.raises(AssertionError, match="drawn in a worker"):
            sequential_counts(orders, phis, phi0s, CHUNK_SHOTS, seeds)
        assert hooked == []


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

    @pytest.mark.parametrize("counts", [(-1, 3), (3, -1)])
    def test_rejects_negative_counts(self, counts):
        with pytest.raises(InvariantViolation, match=re.escape(f"counts must be non-negative, got {counts!r}")):
            uniformity_test(counts)

    def test_rejects_empty_counts(self):
        with pytest.raises(InvariantViolation, match="at least one"):
            uniformity_test((0, 0))

    # float64 arithmetic would give the scalar values at the even counts
    # here, but not at the odd ones, whose squares it rounds
    @pytest.mark.parametrize("shots", [94_906_266, 94_906_267, 2**53 - 1, 2**53])
    def test_column_forms_equal_the_scalar_forms_beyond_the_bound(self, shots):
        # above EXACT_SHOTS float64 cannot hold every shots^2, so each row is
        # the scalar form's, from Python's integers
        assert shots > measurement.EXACT_SHOTS
        draw = random.Random(shots)
        counts = [0, shots, shots // 2] + [draw.randrange(shots + 1) for _ in range(200)]
        column = np.array(counts, dtype=np.int64)
        mean, variance = measurement.outcome_moment_columns(column, shots)
        assert list(zip(mean.tolist(), variance.tolist())) == [outcome_moments(k, shots) for k in counts]
        chi2, passed = measurement.uniformity_columns(column, shots)
        assert passed.dtype == bool
        assert list(zip(chi2.tolist(), passed.tolist())) == [uniformity_test((k, shots - k)) for k in counts]
