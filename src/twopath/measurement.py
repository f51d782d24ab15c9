"""Born-rule projective measurement and the sequential-order experiment.

A measurement projects the state onto an eigenvector of the measured
observable, chosen with probability given by the squared overlap.  The
sequential experiment prepares a balanced state, measures one of the
path/wave pair, then measures the other on the projected state; whichever
goes second comes out 50/50, which is complementarity seen operationally.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .interferometer import balanced_state, path_operator, wave_operator
from .qalgebra import (
    InvariantViolation,
    Observable,
    StateVector,
    binary_eigensystem,
)
from .rng import RandomStream

#: Upper 1% critical value of the chi-square distribution with one degree
#: of freedom; the acceptance threshold for the 50/50 uniformity test.
CHI2_CRITICAL_1PCT = 6.635

#: Shots per chunk of the sequential experiment.  A chunk draws 2^16
#: uniforms into two 512 KB buffers, which stay in a core's L2 cache.  On
#: a Xeon with 2 MB of L2 per core, chunks of 2^16 and 2^17 shots ran
#: slower, and chunks of 2^12 shots paid more in per-chunk overhead.
CHUNK_SHOTS = 1 << 15


class MeasurementOrder(enum.Enum):
    P_THEN_W = "pw"
    W_THEN_P = "wp"


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """One projective measurement: the +1/-1 outcome and the projected state."""

    outcome: float
    post_state: StateVector


@dataclass(frozen=True)
class SequentialStats:
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
    _, vecs = binary_eigensystem(obs)
    p_plus = abs(np.vdot(vecs[:, 0], state.amplitudes)) ** 2
    if rng.uniform() < p_plus:
        return MeasurementRecord(outcome=1.0, post_state=StateVector(vecs[:, 0]))
    return MeasurementRecord(outcome=-1.0, post_state=StateVector(vecs[:, 1]))


@functools.lru_cache(maxsize=8)
def _eigenvectors(order: MeasurementOrder, phi0: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenvector columns of the first and the second observable.

    They depend on the order and phi0 alone, so a run over many phases
    with one offset solves them once.
    """
    if order is MeasurementOrder.P_THEN_W:
        first, second = path_operator(), wave_operator(phi0)
    else:
        first, second = wave_operator(phi0), path_operator()
    _, vecs1 = binary_eigensystem(first)
    _, vecs2 = binary_eigensystem(second)
    vecs1.setflags(write=False)
    vecs2.setflags(write=False)
    return vecs1, vecs2


def sequential_experiment(
    order: MeasurementOrder,
    phi: float,
    phi0: float,
    shots: int,
    rng: RandomStream,
) -> SequentialStats:
    """Measure the path/wave pair in the given order, shot by shot.

    Every shot prepares the balanced state at phi, measures the first
    observable, then measures the second on the projected state.  The
    shots run in chunks of CHUNK_SHOTS, each consuming two stream draws
    per shot in shot order, so the run reproduces a literal measure-then-
    measure loop bit for bit and its memory does not grow with shots.

    Outcomes are +1/-1, so the +1 counts of the two measurements are a
    sufficient statistic: each chunk only adds to them.  With n shots and
    k plus outcomes, the mean is (2k - n) / n and the variance is
    4 k (n - k) / n^2, both from exact integers rounded once.
    """
    if shots < 1:
        raise InvariantViolation(f"shots must be >= 1, got {shots!r}")
    order = MeasurementOrder(order)
    vecs1, vecs2 = _eigenvectors(order, float(phi0))
    state = balanced_state(phi)
    p1 = abs(np.vdot(vecs1[:, 0], state.amplitudes)) ** 2
    # Second-measurement odds depend only on which eigenvector the first
    # projection selected.
    p2_after_plus = abs(np.vdot(vecs2[:, 0], vecs1[:, 0])) ** 2
    p2_after_minus = abs(np.vdot(vecs2[:, 0], vecs1[:, 1])) ** 2

    n1 = n2 = 0
    for draws in rng.uniform_chunks(2 * shots, 2 * CHUNK_SHOTS):
        first_plus = draws[0::2] < p1
        second_plus = draws[1::2] < np.where(first_plus, p2_after_plus, p2_after_minus)
        n1 += int(np.count_nonzero(first_plus))
        n2 += int(np.count_nonzero(second_plus))

    return SequentialStats(
        order=order,
        shots=shots,
        first_mean=(2 * n1 - shots) / shots,
        first_variance=4 * n1 * (shots - n1) / shots**2,
        second_mean=(2 * n2 - shots) / shots,
        second_variance=4 * n2 * (shots - n2) / shots**2,
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
