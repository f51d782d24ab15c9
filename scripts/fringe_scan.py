#!/usr/bin/env python3
"""Sweep the interferometer phase and report fringe + uncertainty data.

Runs `twopath scan --phi0 PHI0 --steps 721 --out OUT` and summarizes its CSV:
the fringe visibility, (max - min) / 2 of <W>; the worst saturation gap; and
the first point of maximal delta_w.  Errors and exit codes are the CLI's.

Usage: python scripts/fringe_scan.py [phi0] [out.csv]
"""

import contextlib
import io
import sys

import numpy as np

from twopath.cli import main


def summarize() -> int:
    phi0 = sys.argv[1] if len(sys.argv) > 1 else "0.6"
    out = sys.argv[2] if len(sys.argv) > 2 else "fringe_scan.csv"
    scan = ["scan", f"--phi0={phi0}", "--steps", "721"]
    # The summary reads a second run's stdout: OUT may be /dev/null or a pipe.
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = main([*scan, f"--out={out}"]) or main(scan)
    if code:
        return code
    header, *rows = text.getvalue().splitlines()
    columns = dict(zip(header.split(","), np.loadtxt(rows, delimiter=",").T))
    w, delta_w, phi = columns["w_expectation"], columns["delta_w"], columns["phi"]
    steepest = int(np.argmax(delta_w))

    print(f"wrote {len(rows)} scan points to {out}")
    print(f"fringe visibility      : {0.5 * (w.max() - w.min()):.12f}")
    print(f"worst saturation gap   : {np.max(np.abs(columns['gap'])):.3e}")
    print(f"max sensitivity at phi = {phi[steepest]:+.4f} rad (phi - phi0 = "
          f"{phi[steepest] - float(phi0):+.4f}), where delta_w = {delta_w[steepest]:.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(summarize())
