"""Command-line front end: phase scans, Monte Carlo runs, verification.

Subcommands:
  scan     analytic interference scan with uncertainty columns (CSV)
  sample   sequential measurement Monte Carlo (CSV), deterministic per seed
  verify   run the named invariant suite, one PASS/FAIL line per check

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error
(any subcommand whose --out file or stdout, say on a full disk, cannot be written).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .interferometer import interference_scan
from .measurement import (
    MeasurementOrder,
    sequential_experiment,
    uniformity_test,
)
from .qalgebra import InvariantViolation
from .rng import RandomStream
from .verify import format_report, run_verification

SCAN_COLUMNS = (
    "phi",
    "w_expectation",
    "p_expectation",
    "delta_p",
    "delta_w",
    "robertson_bound",
    "gap",
)
SAMPLE_COLUMNS = (
    "phi",
    "phi0",
    "order",
    "shots",
    "first_mean",
    "first_variance",
    "second_mean",
    "second_variance",
    "n_plus",
    "n_minus",
    "chi2",
    "chi2_pass",
)

#: Row templates: "%.17g" round-trips a double exactly, %d prints counts
#: and the chi-square pass flag as 1 or 0.
SCAN_ROW = ",".join(["%.17g"] * len(SCAN_COLUMNS))
SAMPLE_ROW = "%.17g,%.17g,%s,%d,%.17g,%.17g,%.17g,%.17g,%d,%d,%.17g,%d"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _check_seed(seed: int) -> None:
    if not 0 <= seed <= 0xFFFFFFFFFFFFFFFF:
        raise InvariantViolation(f"seed must fit in 64 unsigned bits, got {seed}")


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by the scan and sample commands."""

    phi0: float = 0.0
    phi_start: float = -math.pi
    phi_end: float = math.pi
    steps: int = 181
    shots: int = 100_000
    seed: int = 1
    order: str = "both"

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise InvariantViolation(f"steps must be >= 1, got {self.steps}")
        # numpy caps an array's size in bytes at the largest np.intp, and
        # np.linspace counts its points as a float64, which can round up.
        max_steps = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize
        if self.steps > max_steps or float(self.steps) > max_steps:
            raise InvariantViolation(
                f"steps must fit one float64 array (numpy allows at most {max_steps} "
                f"entries), got {self.steps}"
            )
        if self.phi_start > self.phi_end:
            raise InvariantViolation(
                f"phi range is inverted: {self.phi_start} > {self.phi_end}"
            )
        if not (math.isfinite(self.phi0) and math.isfinite(self.phi_start) and math.isfinite(self.phi_end)):
            raise InvariantViolation("angles must be finite")
        if not math.isfinite(self.phi_end - self.phi_start):
            raise InvariantViolation(
                f"phi range {self.phi_start} to {self.phi_end} is wider than a double can hold"
            )
        if self.shots < 1:
            raise InvariantViolation(f"shots must be >= 1, got {self.shots}")
        _check_seed(self.seed)
        if self.order not in ("pw", "wp", "both"):
            raise InvariantViolation(f"order must be pw, wp, or both, got {self.order!r}")

    def grid(self) -> np.ndarray:
        """The ``steps`` phases from ``phi_start`` to ``phi_end`` inclusive."""
        return np.linspace(self.phi_start, self.phi_end, self.steps)


def _csv(header: tuple[str, ...], row_template: str, rows: Iterable[tuple]) -> str:
    """The header line, then ``row_template % row`` for each row, LF-terminated."""
    return "\n".join([",".join(header), *(row_template % row for row in rows)]) + "\n"


def cmd_scan(config: RunConfig) -> str:
    """Analytic scan: interference expectations plus uncertainty columns.

    The whole grid is evaluated as columns by one interference scan.
    """
    scan = interference_scan(config.phi0, config.grid())
    return _csv(SCAN_COLUMNS, SCAN_ROW, zip(*(c.tolist() for c in scan)))


def cmd_sample(config: RunConfig) -> str:
    """Monte Carlo sequential measurements over the grid, both orders.

    Each row gets its own child stream derived from the seed and the row
    index, so row values do not depend on how many rows precede them.
    """
    if config.order == "both":
        orders = [MeasurementOrder.P_THEN_W, MeasurementOrder.W_THEN_P]
    else:
        orders = [MeasurementOrder(config.order)]
    base = RandomStream(config.seed)
    rows = []
    row_index = 0
    for phi in config.grid().tolist():
        for order in orders:
            stream = base.derive(row_index)
            row_index += 1
            stats = sequential_experiment(order, phi, config.phi0, config.shots, stream)
            chi2, ok = uniformity_test(stats.second_counts)
            rows.append(
                (
                    phi,
                    config.phi0,
                    order.value,
                    stats.shots,
                    stats.first_mean,
                    stats.first_variance,
                    stats.second_mean,
                    stats.second_variance,
                    stats.second_counts[0],
                    stats.second_counts[1],
                    chi2,
                    ok,
                )
            )
    return _csv(SAMPLE_COLUMNS, SAMPLE_ROW, rows)


_GNUPLOT_SCAN = """set datafile separator ','
set key autotitle columnhead
set xlabel 'phi (rad)'
plot '{path}' using 1:2 with lines, '' using 1:6 with lines
"""

_GNUPLOT_SAMPLE = """set datafile separator ','
set key autotitle columnhead
set xlabel 'phi (rad)'
plot '{path}' using 1:6 with points
"""


def _emit(text: str, path: str | None) -> None:
    """Write ``text`` to stdout, or to a new file at ``path`` with LF line ends."""
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twopath",
        description="Ideal two-path interferometer: scans, sampling, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, sampling: bool) -> None:
        p.add_argument("--phi0", type=float, default=0.0, help="setup offset (rad)")
        p.add_argument(
            "--from", dest="phi_from", type=float, default=None,
            help="scan start (default -pi, or -180 with --degrees)",
        )
        p.add_argument(
            "--to", dest="phi_to", type=float, default=None,
            help="scan end (default pi, or 180 with --degrees)",
        )
        p.add_argument("--steps", type=int, default=181 if not sampling else 9,
                       help="number of grid points")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--degrees", action="store_true",
                       help="interpret input angles as degrees")
        p.add_argument("--gnuplot", action="store_true",
                       help="also write a gnuplot script next to --out")

    scan_p = sub.add_parser("scan", help="analytic interference scan (CSV)")
    add_common(scan_p, sampling=False)

    sample_p = sub.add_parser("sample", help="sequential-measurement Monte Carlo (CSV)")
    add_common(sample_p, sampling=True)
    sample_p.add_argument("--shots", type=int, default=100_000, help="shots per row")
    sample_p.add_argument("--seed", type=int, default=1, help="base stream seed")
    sample_p.add_argument("--order", choices=("pw", "wp", "both"), default="both",
                          help="measurement order(s) to run")

    verify_p = sub.add_parser("verify", help="run the named invariant suite")
    verify_p.add_argument("--shots", type=int, default=None,
                          help="also run Monte Carlo checks at this shot count")
    verify_p.add_argument("--seed", type=int, default=1, help="stream seed")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse, build, run and write; every failure maps to one exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            # the seed is validated even when no Monte Carlo check uses it
            _check_seed(args.seed)
            report = run_verification(shots=args.shots, seed=args.seed)
            _emit(format_report(report) + "\n", None)
            return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED

        half_turn = 180.0 if args.degrees else math.pi
        phi_from = args.phi_from if args.phi_from is not None else -half_turn
        phi_to = args.phi_to if args.phi_to is not None else half_turn
        angles = (args.phi0, phi_from, phi_to)
        phi0, phi_start, phi_end = map(math.radians, angles) if args.degrees else angles
        sampling = {k: v for k, v in vars(args).items() if k in ("shots", "seed", "order")}
        config = RunConfig(phi0, phi_start, phi_end, args.steps, **sampling)
        if args.gnuplot and args.out is None:
            parser.error("--gnuplot requires --out")
        if args.command == "scan":
            text, template = cmd_scan(config), _GNUPLOT_SCAN
        else:
            text, template = cmd_sample(config), _GNUPLOT_SAMPLE
        _emit(text, args.out)
        if args.gnuplot:
            _emit(template.format(path=args.out), args.out + ".gp")
        return EXIT_OK
    except SystemExit as exc:  # argparse signals usage errors and --help
        return int(exc.code or 0)
    except InvariantViolation as exc:
        code, message = EXIT_USAGE, str(exc)
    except MemoryError as exc:
        # The whole grid and every CSV row are held in memory; a grid too
        # large for it is a usage error, not a failed verification.
        code, message = EXIT_USAGE, f"not enough memory for this run, use fewer --steps ({exc})"
    except OSError as exc:
        code, message = EXIT_IO, f"cannot write output: {exc}"
    sys.stderr.write(f"twopath: {message}\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
