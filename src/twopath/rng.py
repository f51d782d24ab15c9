"""Seedable counter-based uniform random numbers.

The generator is the SplitMix64 output function: the k-th raw 64-bit
value is an avalanche mix of seed + (k+1) * GOLDEN, a pure function of
(seed, k).  That makes every position O(1)-addressable, so drawing a
batch is bit-identical to drawing one value at a time, and runs with the
same seed reproduce the same stream exactly.

Because a draw is a pure function of (seed, counter), many streams can be
drawn at once: :func:`uniform_grid` evaluates a block of rows as one
(rows, draws) array, with the same bits as each row's own stream.  A
batch of one stream (:meth:`RandomStream.uniforms`) is its one-row,
one-block case.
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


def mix64(z):
    """SplitMix64 finalizer: avalanche a 64-bit value.

    Takes a Python int, or a uint64 array mixed elementwise (wrapping
    mod 2^64, as the int form masks); the argument is not modified.
    """
    z = z & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def child_seeds(seed: int, rows):
    """Seeds of the child streams of `seed` for row indices `rows`.

    `rows` is a non-negative Python int or a uint64 array of them; the
    result has the same form.  The double avalanche mix decorrelates each
    child from the parent and from its siblings.
    """
    return mix64(mix64(seed) ^ ((rows + 1) * _GOLDEN & _MASK64))


def _aligned_empty(m: int) -> np.ndarray:
    """An uninitialised uint64 array of m entries starting on a 64-byte
    boundary.  numpy's allocator guarantees only 16 bytes, and the mixing
    loop ran ~9% slower on buffers 16 bytes off, so which speed a run got
    depended on unrelated heap history."""
    raw = np.empty(m + 8, dtype=np.uint64)
    skip = (-raw.ctypes.data % 64) // 8
    return raw[skip:skip + m]


def uniform_grid(
    seeds: np.ndarray, counter: int, n: int, size: int
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Draws counter+1 .. counter+n of each stream in the uint64 array
    `seeds`, as blocks of at most `size` draws.

    Yields (lo, hi, draws), where draws is a (hi - lo, c) array of the next
    c doubles in [0, 1) of streams lo .. hi-1, bit-identical to each
    stream's own batch.  A block holds max(1, size // n) whole rows; a row
    of more than `size` draws is a block of its own, yielded in pieces of
    `size` columns (the last may be shorter).

    Every block is computed in place in the same two uint64 buffers,
    allocated once per call, so a block is valid only until the next is
    drawn.  A long run thus allocates nothing per block; freeing large
    buffers per block let the C heap return their pages to the OS and
    fault them back in, which slowed long `sample` runs by up to a third.
    """
    if n == 0 or not len(seeds):
        return
    cols = min(n, size)
    per_block = min(len(seeds), max(1, size // n))
    z = _aligned_empty(per_block * cols)
    steps = np.arange(1, cols + 1, dtype=np.uint64)
    steps *= _GOLDEN_U64
    t = _aligned_empty(per_block * cols)
    for lo in range(0, len(seeds), per_block):
        hi = min(lo + per_block, len(seeds))
        for done in range(0, n, cols):
            c = min(cols, n - done)
            zb = z[:(hi - lo) * c].reshape(hi - lo, c)
            tb = t[:(hi - lo) * c].reshape(hi - lo, c)
            # seed + (counter + done + k) * GOLDEN for k = 1..c, wrapping mod 2^64
            offset = np.uint64((counter + done) * _GOLDEN & _MASK64)
            np.add(steps[:c], (seeds[lo:hi] + offset)[:, None], out=zb)
            np.right_shift(zb, np.uint64(30), out=tb)
            zb ^= tb
            zb *= _MIX_A_U64
            np.right_shift(zb, np.uint64(27), out=tb)
            zb ^= tb
            zb *= _MIX_B_U64
            np.right_shift(zb, np.uint64(31), out=tb)
            zb ^= tb
            zb >>= np.uint64(11)
            yield lo, hi, np.multiply(zb, _U53, out=tb.view(np.float64))


class RandomStream:
    """Deterministic uniform stream addressed by (seed, counter).

    `uniform` draws one double in [0, 1); `uniforms` draws a batch as one
    block of :func:`uniform_grid` and is bit-identical to the same number
    of single draws, so a run drawn in batches sees the same bits as one
    drawn value by value.  `derive` creates a decorrelated child stream
    for an index; `sample` and `verify` give each output row its own
    child, so a row's values do not depend on the rows before it.
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
        if n == 0:
            return np.empty(0)
        _, _, draws = next(uniform_grid(np.array([self.seed], dtype=np.uint64), self.counter, n, n))
        self.counter += n
        return draws[0]

    def derive(self, index: int) -> "RandomStream":
        """Child stream for row `index`: :func:`child_seeds` of one row."""
        if index < 0:
            raise InvariantViolation(f"row index must be non-negative, got {index!r}")
        return RandomStream(child_seeds(self.seed, index))

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, counter={self.counter})"
