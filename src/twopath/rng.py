"""Seedable counter-based uniform random numbers.

The generator is the SplitMix64 output function: the k-th raw 64-bit
value is an avalanche mix of seed + (k+1) * GOLDEN, a pure function of
(seed, k).  That makes every position O(1)-addressable, so drawing a
batch is bit-identical to drawing one value at a time, and runs with the
same seed reproduce the same stream exactly.

A draw is the double k * 2^-53 of the 53-bit integer k = raw >> 11.
Because a draw is a pure function of (seed, counter), many streams can be
drawn at once: :func:`uniform_grid` evaluates a block of rows as one
(rows, lanes, draws) array of raw words, with the same bits as each
row's own stream, dealt round-robin into `lanes` lanes so that the j-th
draw of every tuple is contiguous.  A batch of one stream
(:meth:`RandomStream.uniforms`) is its one-row, one-lane, one-block case.
:func:`draw_thresholds` turns probabilities into 64-bit thresholds, so a
caller compares raw words as they are.
"""

from __future__ import annotations

import numbers
from typing import Iterator

import numpy as np

from .qalgebra import InvariantViolation, require_seed

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_U53 = float(2.0**-53)
_GOLDEN_U64 = np.uint64(_GOLDEN)
_MIX_A_U64 = np.uint64(_MIX_A)
_MIX_B_U64 = np.uint64(_MIX_B)
_SHIFT_11, _SHIFT_27, _SHIFT_30, _SHIFT_31 = (np.uint64(k) for k in (11, 27, 30, 31))


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

    `seed` must pass :func:`qalgebra.require_seed`; `rows` is an int in
    [0, 2^64) or a uint64 array of them, checked by its dtype alone, and
    the result has the same form.  The double avalanche mix decorrelates
    children from parent and siblings.
    """
    parent = mix64(require_seed(seed))
    if isinstance(rows, np.ndarray):
        if rows.dtype != np.uint64:
            raise InvariantViolation(f"row indices must be a non-negative uint64 array, got {rows.dtype}")
    elif isinstance(rows, numbers.Integral) and 0 <= rows < 1 << 64:
        rows = int(rows)
    else:
        raise InvariantViolation(f"row index must be a non-negative integer below 2**64, got {rows!r}")
    return mix64(parent ^ ((rows + 1) * _GOLDEN & _MASK64))


def _aligned_empty(m: int) -> np.ndarray:
    """An uninitialised uint64 array of m entries starting on a 64-byte
    boundary.  numpy's allocator guarantees only 16 bytes, and the mixing
    loop ran ~9% slower on buffers 16 bytes off, so which speed a run got
    depended on unrelated heap history."""
    raw = np.empty(m + 8, dtype=np.uint64)
    skip = (-raw.ctypes.data % 64) // 8
    return raw[skip:skip + m]


def uniform_grid(
    seeds: np.ndarray, counter: int, n: int, size: int, lanes: int
) -> Iterator[tuple[int, int, np.ndarray]]:
    """The next n tuples of `lanes` draws of each stream in the uint64
    array `seeds`, as blocks of at most `size` tuples, in raw 64-bit words.

    Yields (lo, hi, raw), where raw is a (hi - lo, lanes, c) uint64 array
    of the next c tuples of streams lo .. hi-1: raw[r, j, s] is the word at
    position counter + lanes * (done + s) + j + 1 of stream lo + r, where
    done counts the tuples of earlier pieces of the row; its draw
    (raw >> 11) * 2^-53 is bit-identical to the stream's own batch.  So
    lane j holds the j-th draw of each tuple, contiguous in memory.  A block
    holds max(1, size // n) whole rows; a longer row is a block of its own,
    yielded in pieces of `size` tuples (the last may be shorter).

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
    z = _aligned_empty(per_block * lanes * cols)
    # Lane j of tuple s is position lanes * s + j + 1 of a piece: one step
    # per tuple plus one per lane, each times GOLDEN, added in one pass.  A
    # (lanes, cols) table built by transposing an arange would free a
    # 512 KB temporary, after which the C heap kept the two buffers' pages
    # and `verify --shots` peaked ~0.5 MB higher.
    steps = np.arange(0, lanes * cols, lanes, dtype=np.uint64)
    steps *= _GOLDEN_U64
    lane_steps = np.arange(1, lanes + 1, dtype=np.uint64) * _GOLDEN_U64
    # the distance from one whole piece's first position to the next's
    piece_step = np.uint64(lanes * cols * _GOLDEN & _MASK64)
    t = _aligned_empty(per_block * lanes * cols)
    shape = None
    for lo in range(0, len(seeds), per_block):
        hi = min(lo + per_block, len(seeds))
        # seed + (counter + lanes * done + position) * GOLDEN, wrapping mod
        # 2^64: starts holds the first two terms, advanced after each piece
        starts = seeds[lo:hi, None, None] + lane_steps[:, None]
        starts += np.uint64(counter * _GOLDEN & _MASK64)
        for done in range(0, n, cols):
            c = min(cols, n - done)
            if (hi - lo, c) != shape:  # views: one per piece shape
                shape, step = (hi - lo, c), steps[:c]
                zb = z[:(hi - lo) * lanes * c].reshape(hi - lo, lanes, c)
                tb = t[:(hi - lo) * lanes * c].reshape(hi - lo, lanes, c)
            np.add(starts, step, zb)
            np.right_shift(zb, _SHIFT_30, tb)
            np.bitwise_xor(zb, tb, zb)
            np.multiply(zb, _MIX_A_U64, zb)
            np.right_shift(zb, _SHIFT_27, tb)
            np.bitwise_xor(zb, tb, zb)
            np.multiply(zb, _MIX_B_U64, zb)
            np.right_shift(zb, _SHIFT_31, tb)
            np.bitwise_xor(zb, tb, zb)
            yield lo, hi, zb
            np.add(starts, piece_step, starts)


def draw_thresholds(p) -> tuple[np.ndarray, np.ndarray]:
    """The uint64 thresholds T = ceil(p * 2^53) * 2^11 of the probabilities
    `p`, and where p >= 1, which is certain.

    A raw word is below T exactly when its draw (raw >> 11) * 2^-53 is
    below p.  Every word is below a certain p (a squared overlap may round
    to just over 1) but not below any uint64: its T is 2^64 - 1, above every
    other, and the caller sets its comparisons."""
    k = np.ceil(np.ldexp(p, 53)).astype(np.uint64)
    certain = k > np.uint64(2**53 - 1)
    return np.where(certain, np.uint64(_MASK64), k * np.uint64(1 << 11)), certain


class RandomStream:
    """Deterministic uniform stream addressed by (seed, counter), where the
    seed must pass :func:`qalgebra.require_seed`.

    `uniform` draws one double in [0, 1); `uniforms` draws a batch as one
    block of :func:`uniform_grid` and is bit-identical to the same number
    of single draws, so a run drawn in batches sees the same bits as one
    drawn value by value.  :func:`child_seeds` gives the seeds of
    decorrelated child streams; `sample` and `verify` give each output row
    its own child, so a row's values do not depend on the rows before it.
    """

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int):
        self.seed = require_seed(seed)
        self.counter = 0

    def uniform(self) -> float:
        """One double in [0, 1); advances the counter by one."""
        self.counter += 1
        z = mix64((self.seed + self.counter * _GOLDEN) & _MASK64)
        return (z >> 11) * _U53

    def uniforms(self, n: int) -> np.ndarray:
        """n draws (raw >> 11) * 2^-53 in one array; advances the counter by n."""
        if n < 0:
            raise InvariantViolation(f"batch size must be non-negative, got {n!r}")
        if n == 0:
            return np.empty(0)
        _, _, raw = next(uniform_grid(np.array([self.seed], dtype=np.uint64), self.counter, n, n, 1))
        self.counter += n
        # in place, so a batch allocates no third array of n entries
        k = np.right_shift(raw[0, 0], _SHIFT_11, raw[0, 0])
        return np.multiply(k, _U53, out=k.view(np.float64))

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, counter={self.counter})"
