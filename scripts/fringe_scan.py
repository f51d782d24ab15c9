#!/usr/bin/env python3
"""Sweep the interferometer phase and report fringe + uncertainty data.

Writes the scan CSV (same schema as `twopath scan`) and prints a small
summary: fringe visibility, worst saturation gap, and the scan point of
maximal sensitivity.

Usage: python scripts/fringe_scan.py [phi0] [out.csv]
"""

import math
import sys

import numpy as np

from twopath.cli import RunConfig, cmd_scan
from twopath.interferometer import interference_scan
from twopath.uncertainty import sensitivity


def main() -> int:
    phi0 = float(sys.argv[1]) if len(sys.argv) > 1 else 0.6
    out = sys.argv[2] if len(sys.argv) > 2 else "fringe_scan.csv"

    config = RunConfig(phi0=phi0, phi_start=-math.pi, phi_end=math.pi, steps=721)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(cmd_scan(config))

    grid = np.concatenate(list(config.grid()))
    scan = interference_scan(phi0, grid)
    fringe = np.array([math.cos(phi - phi0) for phi in grid])
    worst_gap = float(np.max(np.abs(scan.gap)))
    steepest = max(range(len(grid)), key=lambda k: sensitivity(grid[k], phi0))

    print(f"wrote {len(grid)} scan points to {out}")
    print(f"fringe visibility      : {0.5 * (fringe.max() - fringe.min()):.12f}")
    print(f"worst saturation gap   : {worst_gap:.3e}")
    print(
        f"max sensitivity at phi = {grid[steepest]:+.4f} rad "
        f"(phi - phi0 = {grid[steepest] - phi0:+.4f}), where delta_w = "
        f"{scan.delta_w[steepest]:.6f}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
