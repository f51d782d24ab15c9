#!/usr/bin/env python3
"""Sequential-measurement demo: whichever observable goes second is random.

Runs `twopath sample --phi0 0 --from 0 --to pi --steps 5 --shots S --seed N`:
the balanced state at phi = 0, pi/4, pi/2, 3pi/4 and pi, measured in both
orders, each row on its own child stream of the seed.  Tabulates the CSV's
outcome statistics and the second outcome's chi-square uniformity verdict.
Errors and exit codes are the CLI's.

Usage: python scripts/randomization_demo.py [shots] [seed]
"""

import contextlib
import csv
import io
import math
import sys

from twopath.cli import main


def tabulate() -> int:
    shots = sys.argv[1] if len(sys.argv) > 1 else "200000"
    seed = sys.argv[2] if len(sys.argv) > 2 else "42"
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = main(["sample", "--phi0", "0", "--from", "0", f"--to={math.pi!r}", "--steps", "5",
                     f"--shots={shots}", f"--seed={seed}"])
    if code:
        return code
    rows = list(csv.DictReader(io.StringIO(text.getvalue())))

    print(f"shots per setting: {rows[0]['shots']}, seed: {int(seed)}, "
          f"setup offset: {float(rows[0]['phi0'])}")
    print("    phi  order  first_mean  first_var  second_mean   n_plus  n_minus     chi2  uniform")
    for row in rows:
        print(f"{float(row['phi']):7.4f} {row['order']:>6} {float(row['first_mean']):11.5f} "
              f"{float(row['first_variance']):10.5f} {float(row['second_mean']):12.5f} "
              f"{row['n_plus']:>8} {row['n_minus']:>8} {float(row['chi2']):8.3f} "
              f"{'yes' if row['chi2_pass'] == '1' else 'NO':>8}")
    print(
        "\nreading: after a path measurement the wave outcome is 50/50 at any "
        "phase,\nand after a wave measurement the path outcome is 50/50; the "
        "first\nmeasurement's variance is 1 (path) or sin^2(phi - phi0) (wave)."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(tabulate())
