#!/usr/bin/env python3
"""Sequential-measurement demo: whichever observable goes second is random.

Prepares the balanced state at several phases, measures path-then-wave
and wave-then-path on many shots each, and tabulates the outcome
statistics with the chi-square uniformity verdict for the second
measurement.

Usage: python scripts/randomization_demo.py [shots] [seed]
"""

import math
import sys

import numpy as np

from twopath.measurement import (
    MeasurementOrder,
    outcome_moments,
    sequential_counts,
    uniformity_test,
)
from twopath.qalgebra import InvariantViolation, require_seed
from twopath.rng import child_seeds


def int_arg(index: int, name: str, default: int) -> int:
    """The integer at sys.argv[index], or the default when it is not given."""
    if len(sys.argv) <= index:
        return default
    try:
        return int(sys.argv[index])
    except ValueError:
        raise SystemExit(f"{name} must be an integer, got {sys.argv[index]!r}")


def main() -> int:
    # Both arguments are checked before the first line is printed.
    shots = int_arg(1, "shots", 200_000)
    seed = int_arg(2, "seed", 42)
    phi0 = 0.0
    if shots < 1:
        raise SystemExit(f"shots must be >= 1, got {shots}")
    try:
        require_seed(seed)
    except InvariantViolation as exc:
        raise SystemExit(str(exc))

    print(f"shots per setting: {shots}, seed: {seed}, setup offset: {phi0}")
    print(
        f"{'phi':>7} {'order':>6} {'first_mean':>11} {'first_var':>10} "
        f"{'second_mean':>12} {'n_plus':>8} {'n_minus':>8} {'chi2':>8} {'uniform':>8}"
    )
    # Phase-major rows, the orders inner; row r draws from child stream r.
    settings = [(phi, order) for phi in (0.0, math.pi / 6, math.pi / 4, math.pi / 2, 2.2)
                for order in MeasurementOrder]
    phis, orders = zip(*settings)
    seeds = child_seeds(seed, np.arange(len(settings), dtype=np.uint64))
    n_first, n_second = sequential_counts(orders, phis, [phi0] * len(settings), shots, seeds)
    for (phi, order), n1, n2 in zip(settings, n_first.tolist(), n_second.tolist()):
        first_mean, first_variance = outcome_moments(n1, shots)
        second_mean, _ = outcome_moments(n2, shots)
        chi2, ok = uniformity_test((n2, shots - n2))
        print(
            f"{phi:7.4f} {order.value:>6} {first_mean:11.5f} "
            f"{first_variance:10.5f} {second_mean:12.5f} {n2:8d} {shots - n2:8d} "
            f"{chi2:8.3f} {'yes' if ok else 'NO':>8}"
        )
    print(
        "\nreading: after a path measurement the wave outcome is 50/50 at any "
        "phase,\nand after a wave measurement the path outcome is 50/50; the "
        "first\nmeasurement's variance is 1 (path) or sin^2(phi - phi0) (wave)."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
