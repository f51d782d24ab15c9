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

from twopath.measurement import (
    MeasurementOrder,
    sequential_experiment,
    uniformity_test,
)
from twopath.rng import RandomStream


def main() -> int:
    shots = int(sys.argv[1]) if len(sys.argv) > 1 else 200_000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 42
    phi0 = 0.0

    print(f"shots per setting: {shots}, seed: {seed}, setup offset: {phi0}")
    print(
        f"{'phi':>7} {'order':>6} {'first_mean':>11} {'first_var':>10} "
        f"{'second_mean':>12} {'n_plus':>8} {'n_minus':>8} {'chi2':>8} {'uniform':>8}"
    )
    base = RandomStream(seed)
    row = 0
    for phi in (0.0, math.pi / 6, math.pi / 4, math.pi / 2, 2.2):
        for order in MeasurementOrder:
            stats = sequential_experiment(order, phi, phi0, shots, base.derive(row))
            row += 1
            chi2, ok = uniformity_test(stats.second_counts)
            print(
                f"{phi:7.4f} {order.value:>6} {stats.first_mean:11.5f} "
                f"{stats.first_variance:10.5f} {stats.second_mean:12.5f} "
                f"{stats.second_counts[0]:8d} {stats.second_counts[1]:8d} "
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
