"""Born-rule projective measurement and the sequential-order experiment.

A measurement projects the state onto a vector of the measured
observable's :func:`qalgebra.binary_eigensystem` basis, chosen with
probability given by the squared overlap.  The sequential experiment
prepares a balanced state, measures one of the path/wave pair, then
measures the other on the projected state; whichever goes second comes
out 50/50, which is complementarity seen operationally.

One sampler runs every such experiment: a row of :func:`sequential_counts`
is one experiment with its own order, phase, offset and stream seed, and
the rows are drawn as blocks of :func:`rng.uniform_grid`, keeping two +1
counts per row.  The draws stay raw 64-bit words, one lane for the first
draw of each shot and one for the second, and each row's Born odds become
64-bit thresholds once (:func:`rng.draw_thresholds`), so one pass compares
both draws of a block's shots.  :func:`sequential_experiment` is its
one-row call.

A call splits its rows into contiguous parts, one per usable CPU but no
more parts than rows or than blocks of CHUNK_SHOTS shots, and draws each
part on a thread of its own; numpy's uint64 ufuncs release the GIL while
they mix.  Each part holds its own block buffers and writes only its
own rows' counts, and every row draws all of its shots from its own
stream, so the counts do not depend on the number of parts.  A call of
one row, or of fewer shots than one block, starts no thread.
"""

from __future__ import annotations

import enum
import os
import threading
from typing import NamedTuple

import numpy as np

from .interferometer import balanced_amplitudes, path_operator, wave_operator
from .qalgebra import (
    Frozen,
    InvariantViolation,
    Observable,
    StateVector,
    binary_eigensystem,
    odds,
    require_shots,
)
from .rng import FINE_STEPS, RandomStream, draw_thresholds, uniform_grid

#: Upper 1% critical value of the chi-square distribution with one degree
#: of freedom; the acceptance threshold for the 50/50 uniformity test.
CHI2_CRITICAL_1PCT = 6.635

#: Shots per block of the sampler, in every part of a call.  A block
#: draws at most 65536 words, two lanes of CHUNK_SHOTS, into two 512 KB
#: buffers and compares them into a 64 KB bool one; with the 32 KB fine
#: table of steps (:data:`rng.FINE_STEPS`), a part holds ~1.1 MB.  A
#: block is the whole rows of max(1, CHUNK_SHOTS // shots) streams, or
#: one piece of a row of more shots.  A multiple of FINE_STEPS, so a whole
#: piece takes one add of positions; CHUNK_SHOTS // 2 < 2^16, so a packed
#: row's uint16 count cannot wrap.  Every numpy call hands the GIL over
#: to the other part, and a block makes the same dozen or so calls at any
#: size, so larger blocks mean fewer handovers per shot.  Between two
#: numpy calls a part holds the GIL while the other waits for it, so a
#: block does as little Python work as it can between its ufunc calls:
#: views are built once per piece shape, a group's values once per group,
#: and one-row counts add up in Python ints.  `sequential_counts` of 3 phases x 2 orders x 4e6 shots
#: (sample-deep's rows) on a 2-vCPU VM, medians of 10 rounds (two threads:
#: 20) of 15 calls, in ms:
#:
#:   24576 shots, one table step per shot:
#:     one thread 138.3, two threads 84.7, two processes of 3 rows 73.5
#:   32768 shots, the fine table:
#:     one thread 137.4, two threads 81.8, two processes of 3 rows 72.6
CHUNK_SHOTS = 8 * FINE_STEPS


class MeasurementOrder(enum.Enum):
    P_THEN_W = "pw"
    W_THEN_P = "wp"


class MeasurementRecord(Frozen):
    """One projective measurement: the +1/-1 outcome and the projected state."""

    __slots__ = ("outcome", "post_state")
    outcome: float
    post_state: StateVector

    def __init__(self, outcome: float, post_state: StateVector) -> None:
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "post_state", post_state)


class SequentialStats(NamedTuple):
    """Empirical statistics of ordered measurement pairs."""

    order: MeasurementOrder
    shots: int
    first_mean: float
    first_variance: float
    second_mean: float
    second_variance: float
    second_counts: tuple[int, int]


def measure(obs: Observable, state: StateVector, rng: RandomStream) -> MeasurementRecord:
    """Projective measurement of a +1/-1 observable on a pure state.

    The outcome is +1 with probability |<e+|state>|^2 and -1 otherwise;
    the returned post-measurement state is the matching eigenvector.
    Consumes exactly one uniform draw from the stream.
    """
    basis = binary_eigensystem(obs)
    p_plus = odds(basis.plus, state)
    if rng.uniform() < p_plus:
        return MeasurementRecord(outcome=1.0, post_state=basis.plus)
    return MeasurementRecord(outcome=-1.0, post_state=basis.minus)


def outcome_moments(n_plus: int, shots: int) -> tuple[float, float]:
    """Mean and variance of `shots` +1/-1 outcomes, n_plus of them +1.

    (2 k - n) / n and 4 k (n - k) / n^2, each computed from exact Python
    integers and correctly rounded once.
    """
    return (2 * n_plus - shots) / shots, 4 * n_plus * (shots - n_plus) / shots**2


#: The most shots per row for which the column forms below compute in
#: float64: every operand, shots^2 included, is then an integer below
#: 2^53, so float64 holds it exactly (94906265^2 < 2^53 < 94906266^2).
EXACT_SHOTS = 94_906_265


def outcome_moment_columns(n_plus: np.ndarray, shots: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`outcome_moments` of each count in a column, as float64 columns.

    For shots <= EXACT_SHOTS each is one correctly rounded division of
    exact values, as Python's int / int is, so the two are equal.  Above
    it each row is :func:`outcome_moments` itself, from Python's integers;
    such a row takes ~0.5 s to draw, so the loop costs nothing measurable.
    """
    if shots > EXACT_SHOTS:
        moments = [outcome_moments(k, shots) for k in n_plus.tolist()]
        mean, variance = np.array(moments, dtype=np.float64).reshape(-1, 2).T
        return mean, variance
    k, n = n_plus.astype(np.float64), float(shots)
    return (2 * k - n) / n, 4 * k * (n - k) / (n * n)


def uniformity_columns(n_plus: np.ndarray, shots: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`uniformity_test` of the counts (n_plus, shots - n_plus) of each
    row, as a float64 column and a bool column.

    For shots <= EXACT_SHOTS, k - n/2 is a half-integer m/2 with m^2 < 2^53,
    so its square is exact, as Python's ``** 2`` is, and every other step
    is the scalar one's, rounded as it is; so the two are equal.  Above
    EXACT_SHOTS each row is :func:`uniformity_test` itself, row by row as
    in :func:`outcome_moment_columns`.
    """
    if shots > EXACT_SHOTS:
        tests = [uniformity_test((k, shots - k)) for k in n_plus.tolist()]
        chi2, passed = np.array(tests, dtype=np.float64).reshape(-1, 2).T
        return chi2, passed.astype(bool)
    k, n = n_plus.astype(np.float64), float(shots)
    expected = n / 2.0
    plus, minus = k - expected, (n - k) - expected
    chi2 = plus * plus / expected + minus * minus / expected
    return chi2, chi2 < CHI2_CRITICAL_1PCT


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_parts(count, parts) -> None:
    """Run count(r0, r1, stop) for every (r0, r1) of `parts`: the first in
    the calling thread, each other on a thread of its own.

    A part that raises sets `stop`, which every part checks once per
    block, so the others end early; so does an interrupt while the
    calling thread waits for them.  Every started thread is joined before
    this returns or raises, so no exception is left to
    ``threading.excepthook``.  If the calling thread's own part raises (an
    interrupt included), that exception is raised; otherwise the first
    exception of the other parts is.
    """
    stop = threading.Event()
    errors = []

    def run(r0, r1):
        try:
            count(r0, r1, stop)
        except BaseException as exc:  # re-raised by the calling thread below
            errors.append(exc)
            stop.set()

    threads = []
    try:
        for r0, r1 in parts[1:]:
            thread = threading.Thread(target=run, args=(r0, r1))
            thread.start()
            threads.append(thread)
        count(*parts[0], stop)
        for thread in threads:
            thread.join()
    except BaseException:  # the caller's part, a thread that would not start, or an interrupt
        stop.set()
        for thread in threads:
            thread.join()
        raise
    if errors:
        raise errors[0]


def sequential_counts(
    orders,
    phis,
    phi0s,
    shots: int,
    seeds: np.ndarray,
    counter: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """+1 counts of the first and the second measurement in every row.

    Row r is one experiment: it measures orders[r] (a MeasurementOrder or
    its value) on the balanced state at phis[r] with setup offset
    phi0s[r], and draws from the stream seeds[r] (uint64) from position
    `counter` on, two draws per shot in shot order: the first decides the
    first measurement, the second the second on the projected state.  So
    each row reproduces a literal measure-then-measure loop bit for bit.

    The rows are drawn as blocks of :func:`rng.uniform_grid`, of at most
    CHUNK_SHOTS shots each in two lanes, so memory does not grow with
    shots; one pass compares both lanes with :func:`rng.draw_thresholds`,
    which decides every raw word as comparing its draw would.  Each row's
    first-outcome odds come from its :func:`balanced_amplitudes` state by
    :func:`measure`'s formula, for all of an offset's rows at once; the
    second-outcome odds depend only on the order, phi0 and which
    eigenvector the first projection selected.  So the path eigenbasis is
    solved once per call and the wave eigenbasis once per distinct (order,
    phi0), in one pass over that order's rows each.

    The rows are counted in min(usable CPUs, rows, blocks) contiguous
    parts, the first in the calling thread; a part that raises stops the
    others at their next block, and once every thread has ended the
    calling thread's own exception is raised, else the others' first.
    """
    shots = require_shots(shots)
    lengths = (len(orders), len(phis), len(phi0s), len(seeds))
    if len(set(lengths)) > 1:
        raise InvariantViolation("need one order, phi, phi0 and seed per row, got %d orders, "
                                 "%d phis, %d phi0s and %d seeds" % lengths)
    if not (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64):
        raise InvariantViolation("seeds must be a uint64 array, as rng.child_seeds returns")
    order_col = np.asarray(orders, dtype=object)
    phi0s = np.asarray(phi0s, dtype=np.float64)
    amps = balanced_amplitudes(phis)
    # a row whose order is neither member nor value keeps NaN odds
    row_odds = np.full((3, len(amps)), np.nan)
    p_first, p_after_plus, p_after_minus = row_odds
    path = binary_eigensystem(path_operator())
    for order in MeasurementOrder:
        rows = np.flatnonzero((order_col == order) | (order_col == order.value))
        # one pass per distinct offset: np.unique's code pages cost 0.2-0.5 MB of RSS
        while rows.size:
            phi0 = float(phi0s[rows[0]])
            wave = binary_eigensystem(wave_operator(phi0))  # rejects a non-finite phi0
            first, second = (path, wave) if order is MeasurementOrder.P_THEN_W else (wave, path)
            same = phi0s[rows] == phi0
            members, rows = rows[same], rows[~same]
            p_first[members] = odds(first.plus, amps[members])
            p_after_plus[members] = odds(second.plus, first.plus)
            p_after_minus[members] = odds(second.plus, first.minus)
    unmatched = np.flatnonzero(np.isnan(p_first))
    if unmatched.size:
        raise InvariantViolation(f"order must be pw or wp, got {order_col[unmatched[0]]!r}")
    # The second outcome is +1 below the lower after-odds whatever the first
    # was, and below the higher after the first outcome whose odds they are;
    # mutually unbiased bases make most rows' two thresholds equal.
    t, certain = draw_thresholds(row_odds)
    plus_is_higher = (t[1] > t[2])[:, None]
    t[1:] = np.minimum(t[1], t[2]), np.maximum(t[1], t[2])
    certain[1:] = certain[1] & certain[2], certain[1] | certain[2]
    banded = t[1] != t[2]
    # a band's last word below T_high (>= 2^11), or 2^64 - 1 where certain
    high_last = (t[2] - ~certain[2])[:, None]
    thresholds, certain = t[:2].T[:, :, None], certain[:2].T
    counts = np.zeros((2, len(amps)), dtype=np.int64)

    def count(r0, r1, stop):  # per block, little but its ufunc calls (see CHUNK_SHOTS)
        below = np.empty(2 * CHUNK_SHOTS, dtype=bool)
        part_limits, part_certain, part_banded = thresholds[r0:r1], certain[r0:r1], banded[r0:r1]
        part_high, part_plus, part_counts = high_last[r0:r1], plus_is_higher[r0:r1], counts[:, r0:r1]
        any_certain, any_band = part_certain.any(), part_banded.any()
        group = last = None
        single = False
        for lo, hi, raw in uniform_grid(seeds[r0:r1], counter, shots, CHUNK_SHOTS, 2):
            if stop.is_set():
                return
            if lo != group:  # new rows: what their pieces share
                if single:
                    part_counts[:, group] = k1, k2
                group, single, k1, k2 = lo, hi - lo == 1, 0, 0
                limits = part_limits[lo:hi]
                band = any_band and part_banded[lo:hi].any()
                if band:
                    high, plus = part_high[lo:hi], part_plus[lo:hi]
                # a certain lane has no uint64 threshold: set it after
                fixed = np.argwhere(part_certain[lo:hi]).tolist() if any_certain else ()
            if raw is not last:  # a new piece shape: its views
                last = raw
                block = below[:raw.size].reshape(raw.shape)
                firsts, seconds, raw_seconds = block[:, 0], block[:, 1], raw[:, 1]
                row_first, row_second = firsts[0], seconds[0]
            np.less(raw, limits, block)
            for row, lane in fixed:
                block[row, lane] = True
            if band:
                seconds |= (raw_seconds <= high) & (firsts == plus)
            if single:
                # flat counts take ~1 us a lane
                k1 += np.count_nonzero(row_first)
                k2 += np.count_nonzero(row_second)
            else:
                # a packed row has at most CHUNK_SHOTS // 2 < 2^16 shots
                part_counts[:, lo:hi] += np.add.reduce(block.view(np.uint8), axis=2, dtype=np.uint16).T
        if single:
            part_counts[:, group] = k1, k2

    n_rows = len(amps)
    parts = max(1, min(_usable_cpus(), n_rows, -(-n_rows * shots // CHUNK_SHOTS)))
    bounds = [n_rows * part // parts for part in range(parts + 1)]
    _run_parts(count, list(zip(bounds, bounds[1:])))
    return counts[0], counts[1]


def sequential_experiment(
    order: MeasurementOrder,
    phi: float,
    phi0: float,
    shots: int,
    rng: RandomStream,
) -> SequentialStats:
    """Measure the path/wave pair in the given order, shot by shot.

    Every shot prepares the balanced state at phi, measures the first
    observable, then measures the second on the projected state.  This is
    the one-row call of :func:`sequential_counts` on the stream `rng`,
    whose counter advances by two draws per shot.

    Outcomes are +1/-1, so the +1 counts of the two measurements are a
    sufficient statistic; the moments follow from them
    (:func:`outcome_moments`).
    """
    shots = require_shots(shots)
    seeds = np.array([rng.seed], dtype=np.uint64)
    (n1,), (n2,) = sequential_counts([order], [phi], [phi0], shots, seeds, rng.counter)
    rng.counter += 2 * shots
    n1, n2 = int(n1), int(n2)
    first_mean, first_variance = outcome_moments(n1, shots)
    second_mean, second_variance = outcome_moments(n2, shots)
    return SequentialStats(
        order=MeasurementOrder(order),
        shots=shots,
        first_mean=first_mean,
        first_variance=first_variance,
        second_mean=second_mean,
        second_variance=second_variance,
        second_counts=(n2, shots - n2),
    )


def uniformity_test(counts: tuple[int, int]) -> tuple[float, bool]:
    """One-degree-of-freedom chi-square test against a 50/50 split.

    Returns (chi2, passed); passed means the statistic stays below the
    1% critical value, i.e. the counts are consistent with uniformity.
    """
    n_plus, n_minus = counts
    if n_plus < 0 or n_minus < 0:
        raise InvariantViolation(f"counts must be non-negative, got {counts!r}")
    total = n_plus + n_minus
    if total == 0:
        raise InvariantViolation("uniformity test needs at least one count")
    expected = total / 2.0
    chi2 = (n_plus - expected) ** 2 / expected + (n_minus - expected) ** 2 / expected
    return chi2, chi2 < CHI2_CRITICAL_1PCT
