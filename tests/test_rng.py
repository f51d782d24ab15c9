"""Counter-based stream: reproducibility, batching, derivation, statistics."""

import math
import tracemalloc

import numpy as np
import pytest

from twopath.cli import RunConfig
from twopath.qalgebra import InvariantViolation, require_seed
from twopath.rng import FINE_STEPS, RandomStream, child_seeds, draw_thresholds, mix64, uniform_grid
from twopath.verify import run_verification

# Raw 64-bit outputs of the published algorithm for seed 1234567,
# cross-checked against an independent transcription of its reference
# implementation.
KNOWN_RAW = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


def reference_raw_stream(seed: int, n: int) -> list[int]:
    """Straightforward reimplementation used as the oracle for batching:
    the first n raw 64-bit outputs of the stream."""
    mask = (1 << 64) - 1
    out = []
    state = seed
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def reference_scalar_stream(seed: int, n: int) -> list[float]:
    """The first n draws of the stream, (raw >> 11) * 2^-53."""
    return [(raw >> 11) * 2.0**-53 for raw in reference_raw_stream(seed, n)]


class TestKnownAnswers:
    def test_published_test_vector(self):
        stream = RandomStream(1234567)
        for raw in KNOWN_RAW:
            assert stream.uniform() == (raw >> 11) * 2.0**-53

    def test_mix64_fixed_points(self):
        assert mix64(0) == 0
        assert mix64(1) == 0x5692161D100B05E5


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = RandomStream(97)
        b = RandomStream(97)
        assert [a.uniform() for _ in range(100)] == [b.uniform() for _ in range(100)]

    def test_different_seeds_differ(self):
        a = RandomStream(97)
        b = RandomStream(98)
        assert [a.uniform() for _ in range(10)] != [b.uniform() for _ in range(10)]

    def test_counter_addressing(self):
        # a stream restarted at counter k continues identically
        a = RandomStream(5)
        skipped = [a.uniform() for _ in range(10)][3:]
        b = RandomStream(5)
        b.counter = 3
        assert [b.uniform() for _ in range(7)] == skipped


class TestBatching:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 1000])
    def test_batch_equals_scalar(self, n):
        batch = RandomStream(2024).uniforms(n)
        assert batch.tolist() == reference_scalar_stream(2024, n)

    def test_interleaved_batches_and_scalars(self):
        a = RandomStream(11)
        mixed = [a.uniform()] + a.uniforms(5).tolist() + [a.uniform()]
        assert mixed == reference_scalar_stream(11, 7)

    def test_counter_advances_by_batch_size(self):
        a = RandomStream(0)
        a.uniforms(123)
        assert a.counter == 123

    # around one run of the fine table of steps, and runs plus a remainder
    @pytest.mark.parametrize("n", [FINE_STEPS - 1, FINE_STEPS, FINE_STEPS + 1, 3 * FINE_STEPS + 5])
    def test_batch_equals_single_draws(self, n):
        a, b = RandomStream(2024), RandomStream(2024)
        a.uniform()
        b.uniform()
        assert a.uniforms(n).tolist() == [b.uniform() for _ in range(n)]
        assert a.counter == b.counter == n + 1

    def test_batch_holds_two_buffers_and_the_fine_table(self):
        # the n-word draw and scratch buffers, plus at most 32 KB of steps
        # and a few words per run: no third array of n words
        n = 1 << 20
        tracemalloc.start()
        try:
            RandomStream(1).uniforms(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * n + 64 * 1024


class TestUniformChunks:
    """One stream's draws as pieces of :func:`uniform_grid` with one seed
    and one lane."""

    def test_pieces_equal_the_scalar_stream(self):
        # starts mid-stream, ends on a short piece, and wraps mod 2^64
        seed = (1 << 64) - 1
        seeds = np.array([seed], dtype=np.uint64)
        pieces = [raw[0, 0].tolist() for _, _, raw in uniform_grid(seeds, 1, 25, 10, 1)]
        assert [len(piece) for piece in pieces] == [10, 10, 5]
        assert sum(pieces, []) == reference_raw_stream(seed, 26)[1:]
        a = RandomStream(seed)
        a.uniform()
        assert a.uniforms(25).tolist() == reference_scalar_stream(seed, 26)[1:]
        assert a.counter == 26

    def test_pieces_reuse_one_buffer(self):
        (_, _, first), (_, _, second) = uniform_grid(np.array([3], dtype=np.uint64), 0, 20, 10, 1)
        assert np.shares_memory(first, second)

    @pytest.mark.parametrize("n, size", [(1, 1), (25, 10), (1000, 1000), (70_000, 1 << 16)])
    def test_pieces_start_on_a_64_byte_boundary(self, n, size):
        for _, _, piece in uniform_grid(np.array([3], dtype=np.uint64), 0, n, size, 1):
            assert piece.ctypes.data % 64 == 0


class TestUniformGrid:
    SEEDS = [0, 1, (1 << 64) - 1, 12345, 1 << 63]

    @pytest.mark.parametrize(
        "n, size, blocks",
        [
            # whole rows, size // n = 2 per block, the last block partial
            (7, 16, [(0, 2, 7), (2, 4, 7), (4, 5, 7)]),
            # one row fills a block exactly
            (8, 8, [(0, 1, 8), (1, 2, 8), (2, 3, 8), (3, 4, 8), (4, 5, 8)]),
            # rows longer than a block: one row per block, in pieces
            (25, 10, [(lo, lo + 1, c) for lo in range(5) for c in (10, 10, 5)]),
        ],
    )
    def test_blocks_equal_each_stream(self, n, size, blocks):
        # starts mid-stream and wraps mod 2^64 at the largest seed
        seeds = np.array(self.SEEDS, dtype=np.uint64)
        got = {lo: [] for lo in range(len(seeds))}
        shapes = []
        for lo, hi, raw in uniform_grid(seeds, 3, n, size, 1):
            shapes.append((lo, hi, raw.shape[2]))
            assert raw.shape[:2] == (hi - lo, 1)
            assert raw.dtype == np.uint64
            assert raw.ctypes.data % 64 == 0
            for row in range(lo, hi):
                got[row] += raw[row - lo, 0].tolist()
        assert shapes == blocks
        for row, seed in enumerate(self.SEEDS):
            assert got[row] == reference_raw_stream(seed, 3 + n)[3:]

    @pytest.mark.parametrize("lanes", [2, 3])
    @pytest.mark.parametrize(
        "n, size",
        [
            (7, 16),
            (25, 10),
            # packed rows shorter than one run of the fine table of steps, of
            # one run, and of one run and a remainder of one tuple
            (FINE_STEPS - 1, 2 * FINE_STEPS),
            (FINE_STEPS, 2 * FINE_STEPS),
            (FINE_STEPS + 1, 2 * FINE_STEPS + 2),
            # a piece of two runs and a remainder, then a last piece of one
            # run and a remainder
            (3 * FINE_STEPS + 10, 2 * FINE_STEPS + 3),
            # pieces of two runs and a remainder, then a last piece of a
            # remainder alone
            (4 * FINE_STEPS + 9, 2 * FINE_STEPS + 3),
            # whole pieces of two runs, then a last piece of a remainder alone
            (4 * FINE_STEPS + 1, 2 * FINE_STEPS),
        ],
    )
    def test_lanes_deal_each_stream_round_robin(self, lanes, n, size):
        # lane j of tuple s is position counter + lanes * s + j + 1, also in
        # the pieces of a row longer than a block and in every run of the
        # fine table of steps
        seeds = np.array(self.SEEDS, dtype=np.uint64)
        got = {lo: [] for lo in range(len(seeds))}
        for lo, hi, raw in uniform_grid(seeds, 3, n, size, lanes):
            assert raw.shape[:2] == (hi - lo, lanes)
            assert raw.strides[2] == raw.itemsize  # a lane is contiguous
            for row in range(lo, hi):
                got[row] += raw[row - lo].T.ravel().tolist()
        for row, seed in enumerate(self.SEEDS):
            assert got[row] == reference_raw_stream(seed, 3 + lanes * n)[3:]

    def test_blocks_reuse_one_buffer(self):
        seeds = np.arange(10, dtype=np.uint64)
        blocks = [k for _, _, k in uniform_grid(seeds, 0, 4, 8, 1)]
        assert len(blocks) == 5
        assert all(np.shares_memory(k, blocks[0]) for k in blocks)

    def test_nothing_to_draw(self):
        assert list(uniform_grid(np.arange(3, dtype=np.uint64), 0, 0, 8, 2)) == []
        assert list(uniform_grid(np.empty(0, dtype=np.uint64), 0, 4, 8, 2)) == []


def threshold_mismatches(thresholds, below):
    """The (p, raw) pairs where `below(raw, T, certain)` on the thresholds
    (T, certain) of p disagrees with the draw's own comparison
    (raw >> 11) * 2^-53 < p, for raw words at and around T and at the ends."""
    probabilities = [
        0.0, 5e-324, 2.0**-53, 0.3, float.fromhex("0x1.ffffffffffffep-2"), 0.5,
        1 - 2.0**-53, 1.0, 1 + 2.0**-52,
    ]
    limits, certain = thresholds(np.array(probabilities))
    mismatches = []
    for p, t, sure in zip(probabilities, limits.tolist(), certain.tolist()):
        big_k = math.ceil(math.ldexp(p, 53))
        for raw in sorted({0, t - 1, t, (big_k - 1) << 11 | 0x7FF, 2**64 - 1}):
            if not 0 <= raw < 2**64:
                continue
            if bool(below(np.uint64(raw), np.uint64(t), sure)) != ((raw >> 11) * 2.0**-53 < p):
                mismatches.append((p, raw))
    return mismatches


def below(raw, t, certain):
    """The sampler's rule: a raw word is below its threshold, or the odds are certain."""
    return raw < t or certain


class TestDrawThresholds:
    def test_integer_comparison_equals_the_draw_comparison(self):
        assert threshold_mismatches(draw_thresholds, below) == []
        # p at or just above 1, as a rounded squared overlap may be, is
        # certain: T = 2^64 does not fit, so it is flagged
        t, certain = draw_thresholds(np.array([1 - 2.0**-53, 1.0, 1 + 2.0**-52]))
        assert t.tolist() == [2**64 - 2**11, 2**64 - 1, 2**64 - 1]
        assert certain.tolist() == [False, True, True]

        # the same check catches a rounding down, an inclusive comparison,
        # and certain odds clamped to T = 2^64 - 1 with no flag
        def floored(p):
            return np.floor(np.ldexp(p, 53)).astype(np.uint64) << np.uint64(11), p >= 1

        def clamped(p):
            return draw_thresholds(p)[0], np.zeros(len(p), dtype=bool)

        assert (5e-324, 0) in threshold_mismatches(floored, below)
        assert threshold_mismatches(draw_thresholds, lambda raw, t, certain: raw <= t or certain)
        assert threshold_mismatches(clamped, below) == [(1.0, 2**64 - 1), (1 + 2.0**-52, 2**64 - 1)]


class TestRange:
    def test_unit_interval(self):
        draws = RandomStream(314).uniforms(100_000)
        assert float(draws.min()) >= 0.0
        assert float(draws.max()) < 1.0

    def test_statistical_smoke(self):
        draws = RandomStream(314).uniforms(100_000)
        assert abs(float(draws.mean()) - 0.5) < 0.005
        assert abs(float(draws.var()) - 1.0 / 12.0) < 0.005


class TestDerive:
    """Child seeds: :func:`child_seeds` of one row or of a uint64 array."""

    def test_deterministic(self):
        assert child_seeds(42, 3) == child_seeds(42, 3)

    def test_children_differ_from_parent_and_each_other(self):
        seeds = {42}
        for i in range(50):
            child = child_seeds(42, i)
            assert child not in seeds
            seeds.add(child)

    def test_chains(self):
        grandchild = child_seeds(child_seeds(42, 1), 2)
        assert grandchild != child_seeds(42, 1)

    @pytest.mark.parametrize("seed", [0, 1, (1 << 64) - 1])
    def test_equals_the_array_mix(self, seed):
        rows = np.arange(10_001, dtype=np.uint64)
        children = [child_seeds(seed, i) for i in range(10_001)]
        assert child_seeds(seed, rows).tolist() == children

    def test_rejects_negative_index(self):
        # -1 would alias row 2**64 - 1 under the mask
        with pytest.raises(InvariantViolation, match="non-negative"):
            child_seeds(42, -1)

    # 2**64 would alias row 0 under the mask; neither an int64 array nor a
    # float is a uint64 row
    @pytest.mark.parametrize("rows, message", [
        (1 << 64, "row index must be a non-negative integer below 2**64, got 18446744073709551616"),
        (1.5, "row index must be a non-negative integer below 2**64, got 1.5"),
        (np.array([1, 2]), "row indices must be a non-negative uint64 array, got int64"),
    ])
    def test_rejects_rows_outside_uint64(self, rows, message):
        with pytest.raises(InvariantViolation) as raised:
            child_seeds(42, rows)
        assert str(raised.value) == message


SEED_ENTRIES = {
    "RandomStream": RandomStream,
    "child_seeds": lambda seed: child_seeds(seed, np.arange(3, dtype=np.uint64)),
    "run_verification": lambda seed: run_verification(seed=seed),
    "run_verification-shots": lambda seed: run_verification(shots=100, seed=seed),
    "RunConfig": lambda seed: RunConfig(seed=seed),
}


class TestSeedRule:
    """Every entry that takes a seed applies qalgebra.require_seed."""

    # -1 and 2**64 + 5 would alias 2**64 - 1 and 5 under the mask
    @pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 5, 1.5, "7"])
    @pytest.mark.parametrize("entry", SEED_ENTRIES)
    def test_every_entry_rejects_with_one_message(self, entry, seed):
        with pytest.raises(InvariantViolation) as raised:
            SEED_ENTRIES[entry](seed)
        assert str(raised.value) == f"seed must be an unsigned 64-bit integer, got {seed!r}"

    def test_integer_types_are_read_as_ints(self):
        for seed in (np.uint64(5), np.int64(5)):
            assert require_seed(seed) == int(seed)
            assert type(require_seed(seed)) is int


class TestValidation:
    def test_rejects_seed_out_of_range(self):
        with pytest.raises(InvariantViolation, match="64-bit"):
            RandomStream(-1)
        with pytest.raises(InvariantViolation, match="64-bit"):
            RandomStream(1 << 64)

    def test_accepts_extremes(self):
        RandomStream(0)
        RandomStream((1 << 64) - 1)

    def test_repr_names_seed_and_counter(self):
        stream = RandomStream(7)
        stream.uniforms(3)
        assert repr(stream) == "RandomStream(seed=7, counter=3)"

    def test_rejects_negative_batch(self):
        with pytest.raises(InvariantViolation, match="non-negative"):
            RandomStream(1).uniforms(-1)
