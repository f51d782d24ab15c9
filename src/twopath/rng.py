"""Seedable counter-based uniform random numbers.

The generator is the SplitMix64 output function: the k-th raw 64-bit
value is an avalanche mix of seed + (k+1) * GOLDEN, a pure function of
(seed, k).  That makes every position O(1)-addressable, so drawing a
batch is bit-identical to drawing one value at a time, and runs with the
same seed reproduce the same stream exactly.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .qalgebra import InvariantViolation

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_U53 = float(2.0**-53)
_GOLDEN_U64 = np.uint64(_GOLDEN)
_MIX_A_U64 = np.uint64(_MIX_A)
_MIX_B_U64 = np.uint64(_MIX_B)


def mix64(z: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit value."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


class RandomStream:
    """Deterministic uniform stream addressed by (seed, counter).

    `uniform` draws one double in [0, 1); `uniforms` draws a batch and is
    bit-identical to the same number of single draws, so a run drawn in
    chunks sees the same bits as one drawn in a single batch.  `derive`
    creates a decorrelated child stream for an index; `sample` and
    `verify` give each output row its own child, so a row's values do not
    depend on the rows before it.
    """

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed <= _MASK64:
            raise InvariantViolation(
                f"seed must be an unsigned 64-bit integer, got {seed!r}"
            )
        self.seed = seed
        self.counter = 0

    def uniform(self) -> float:
        """One double in [0, 1); advances the counter by one."""
        self.counter += 1
        z = mix64((self.seed + self.counter * _GOLDEN) & _MASK64)
        return (z >> 11) * _U53

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1) in one array; advances the counter by n."""
        if n < 0:
            raise InvariantViolation(f"batch size must be non-negative, got {n!r}")
        return next(self.uniform_chunks(n, max(n, 1)), np.empty(0))

    def uniform_chunks(self, n: int, size: int) -> Iterator[np.ndarray]:
        """The next n doubles in [0, 1) as successive arrays of `size` (the
        last may be shorter), bit-identical to one batch of n.

        Every piece is computed in place in the same two uint64 buffers, so
        a piece is valid only until the next is drawn.  A long run thus
        allocates nothing per piece; freeing large buffers per piece let
        the C heap return their pages to the OS and fault them back in,
        which slowed long `sample` runs by up to a third.
        """
        z = np.arange(1, min(n, size) + 1, dtype=np.uint64)
        steps = z * _GOLDEN_U64
        t = np.empty_like(z)
        for done in range(0, n, size):
            m = min(size, n - done)
            zm, tm = z[:m], t[:m]
            # seed + (counter + k) * GOLDEN for k = 1..m, wrapping mod 2^64
            np.add(steps[:m], np.uint64((self.seed + self.counter * _GOLDEN) & _MASK64), out=zm)
            self.counter += m
            np.right_shift(zm, np.uint64(30), out=tm)
            zm ^= tm
            zm *= _MIX_A_U64
            np.right_shift(zm, np.uint64(27), out=tm)
            zm ^= tm
            zm *= _MIX_B_U64
            np.right_shift(zm, np.uint64(31), out=tm)
            zm ^= tm
            zm >>= np.uint64(11)
            yield np.multiply(zm, _U53, out=tm.view(np.float64))

    def derive(self, index: int) -> "RandomStream":
        """Child stream for row `index`; deterministic and decorrelated
        from the parent by double avalanche mixing."""
        if index < 0:
            raise InvariantViolation(f"row index must be non-negative, got {index!r}")
        child_seed = mix64(mix64(self.seed) ^ (((index + 1) * _GOLDEN) & _MASK64))
        return RandomStream(child_seed)

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, counter={self.counter})"
