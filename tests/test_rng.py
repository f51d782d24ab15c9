"""Counter-based stream: reproducibility, batching, derivation, statistics."""

import numpy as np
import pytest

from twopath.qalgebra import InvariantViolation
from twopath.rng import RandomStream, mix64

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


def reference_scalar_stream(seed: int, n: int) -> list[float]:
    """Straightforward reimplementation used as the oracle for batching."""
    mask = (1 << 64) - 1
    out = []
    state = seed
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        out.append((z >> 11) * 2.0**-53)
    return out


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


class TestUniformChunks:
    def test_pieces_equal_the_scalar_stream(self):
        # starts mid-stream, ends on a short piece, and wraps mod 2^64
        seed = (1 << 64) - 1
        a = RandomStream(seed)
        a.uniform()
        pieces = [piece.tolist() for piece in a.uniform_chunks(25, 10)]
        assert [len(piece) for piece in pieces] == [10, 10, 5]
        assert sum(pieces, []) == reference_scalar_stream(seed, 26)[1:]
        assert a.counter == 26

    def test_pieces_reuse_one_buffer(self):
        first, second = RandomStream(3).uniform_chunks(20, 10)
        assert np.shares_memory(first, second)


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
    def test_deterministic(self):
        assert RandomStream(42).derive(3).seed == RandomStream(42).derive(3).seed

    def test_children_differ_from_parent_and_each_other(self):
        parent = RandomStream(42)
        seeds = {parent.seed}
        for i in range(50):
            child = parent.derive(i)
            assert child.seed not in seeds
            assert child.counter == 0
            seeds.add(child.seed)

    def test_chains(self):
        grandchild = RandomStream(42).derive(1).derive(2)
        assert grandchild.seed != RandomStream(42).derive(1).seed

    def test_rejects_negative_index(self):
        with pytest.raises(InvariantViolation, match="non-negative"):
            RandomStream(42).derive(-1)


class TestValidation:
    def test_rejects_seed_out_of_range(self):
        with pytest.raises(InvariantViolation, match="64-bit"):
            RandomStream(-1)
        with pytest.raises(InvariantViolation, match="64-bit"):
            RandomStream(1 << 64)

    def test_accepts_extremes(self):
        RandomStream(0)
        RandomStream((1 << 64) - 1)

    def test_rejects_negative_batch(self):
        with pytest.raises(InvariantViolation, match="non-negative"):
            RandomStream(1).uniforms(-1)
