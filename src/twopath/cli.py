"""Command-line front end: phase scans, Monte Carlo runs, verification.

Subcommands:
  scan     analytic interference scan with uncertainty columns (CSV)
  sample   sequential measurement Monte Carlo (CSV), deterministic per seed
  verify   run the named invariant suite, one PASS/FAIL line per check

Every number in either CSV reads as "%.17g" prints it, and both are
printed by output.format_rows in numpy: scan's doubles, and sample's
columns with its order as text.  Above measurement.EXACT_SHOTS shots a
row, where float64 cannot hold the statistics' operands, sample's rows
are made by "%" from Python's integers.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error
(any subcommand whose --out file or stdout, say on a full disk, cannot be written).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator

import numpy as np

from .output import emit, format_rows
from .interferometer import interference_scan
from .measurement import (
    EXACT_SHOTS,
    MeasurementOrder,
    outcome_moment_columns,
    outcome_moments,
    sequential_counts,
    uniformity_columns,
    uniformity_test,
)
from .qalgebra import InvariantViolation, require_finite_angle, require_seed, require_shots
from .rng import child_seeds
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

#: The sample row template of runs of more than EXACT_SHOTS shots a row:
#: "%.17g" round-trips a double exactly, %d prints counts and the
#: chi-square pass flag as 1 or 0.
SAMPLE_ROW = "%.17g,%.17g,%s,%d,%.17g,%.17g,%.17g,%.17g,%d,%d,%.17g,%d"

#: Grid points per block, and CSV lines per chunk made by "%".  ``scan`` and
#: ``sample`` build, evaluate, format and write one block before they start
#: the next, so their memory does not grow with --steps.  A grid of up to
#: this many phases, both orders of a 2001-point sample among them, stays
#: one sampler call.
BLOCK_POINTS = 2048

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


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
        for name in ("phi0", "phi_start", "phi_end"):
            require_finite_angle(getattr(self, name), name)
        if self.phi_start > self.phi_end:
            raise InvariantViolation(
                f"phi range is inverted: {self.phi_start} > {self.phi_end}"
            )
        if self.phi_end - self.phi_start == math.inf:  # finite, ordered ends can only overflow
            raise InvariantViolation(
                f"phi range {self.phi_start} to {self.phi_end} is wider than a double can hold"
            )
        require_shots(self.shots)
        require_seed(self.seed)
        if self.order not in ("pw", "wp", "both"):
            raise InvariantViolation(f"order must be pw, wp, or both, got {self.order!r}")

    def grid(self) -> Iterator[np.ndarray]:
        """The ``steps`` phases from ``phi_start`` to ``phi_end`` inclusive,
        in blocks of at most BLOCK_POINTS.

        Each point is computed as np.linspace computes it: its index times
        the step, plus the start, with numpy's branch for a step that
        underflows to zero, and the last point set to the end.  So the
        blocks, joined, are np.linspace's array byte for byte.
        """
        start, stop, div = self.phi_start, self.phi_end, self.steps - 1
        delta = stop - start
        step = delta / div if div else delta  # one point: 0 * delta, as numpy
        for lo in range(0, self.steps, BLOCK_POINTS):
            block = np.arange(lo, min(lo + BLOCK_POINTS, self.steps), dtype=np.float64)
            if step == 0 and div:
                block /= div
                block *= delta
            else:
                with np.errstate(over="ignore"):  # only the last point, set to stop below
                    block *= step
            block += start
            if div and lo + block.size == self.steps:
                block[-1] = stop
            yield block


def _csv_chunks(n: int, rows: Iterable[tuple]) -> Iterator[str]:
    """``n`` sample rows as LF-terminated lines, in chunks of at most
    BLOCK_POINTS lines, each made by one ``%`` over the values of its rows."""
    rows = iter(rows)
    for lo in range(0, n, BLOCK_POINTS):
        k = min(BLOCK_POINTS, n - lo)
        yield ((SAMPLE_ROW + "\n") * k) % tuple(chain.from_iterable(islice(rows, k)))


def cmd_scan(config: RunConfig) -> Iterator[str]:
    """Analytic scan: interference expectations plus uncertainty columns.

    Yields the CSV text in chunks: the header line, then the chunks of
    each grid block, evaluated as columns by one interference scan and
    printed by one format_rows call.  A product below its bound raises in
    its block, after the chunks of the blocks before it.
    """
    yield ",".join(SCAN_COLUMNS) + "\n"
    for phis in config.grid():
        yield from format_rows(np.column_stack(interference_scan(config.phi0, phis)))


def cmd_sample(config: RunConfig) -> Iterator[str]:
    """Monte Carlo sequential measurements over the grid, both orders.

    The rows run over the grid and, within each phase, over the orders.
    Each is one experiment on the child stream of the seed for its index,
    so its values do not depend on the rows before it, nor on the block
    that holds it.  Yields the CSV text in chunks: the header line, then
    the lines of each grid block, from one sampler call, which draws
    every row's two +1 counts, and one format_rows call.  Runs of more
    than EXACT_SHOTS shots a row format their blocks with "%" instead.
    """
    values = [order.value for order in MeasurementOrder] if config.order == "both" else [config.order]
    shots, phi0 = config.shots, config.phi0
    yield ",".join(SAMPLE_COLUMNS) + "\n"
    first_row = 0
    for grid in config.grid():
        phis = np.repeat(grid, len(values))
        codes = np.tile(np.arange(len(values)), grid.size)
        orders = np.array(values, dtype=object).take(codes)
        seeds = child_seeds(config.seed, np.arange(first_row, first_row + phis.size, dtype=np.uint64))
        first_row += phis.size
        n_first, n_second = sequential_counts(orders, phis, np.full(phis.size, phi0), shots, seeds)
        if shots <= EXACT_SHOTS:
            block = np.column_stack([
                phis, np.full(phis.size, phi0), codes, np.full(phis.size, shots),
                *outcome_moment_columns(n_first, shots), *outcome_moment_columns(n_second, shots),
                n_second, shots - n_second, *uniformity_columns(n_second, shots),
            ])
            yield from format_rows(block, text=(SAMPLE_COLUMNS.index("order"), values))
            continue
        # The columns are read lazily: lists of them raised the peak RSS of
        # 4002 rows by ~0.15 MB.
        rows = (
            (phi, phi0, order, shots, *outcome_moments(n1, shots), *outcome_moments(n2, shots),
             n2, shots - n2, *uniformity_test((n2, shots - n2)))
            for phi, order, n1, n2 in zip(map(float, phis), orders, map(int, n_first), map(int, n_second))
        )
        yield from _csv_chunks(phis.size, rows)


_GNUPLOT = """set datafile separator ','
set key autotitle columnhead
set xlabel 'phi (rad)'
plot '{path}' {plot}
"""


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
            report = run_verification(shots=args.shots, seed=args.seed)
            emit([format_report(report) + "\n"], None)
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
            chunks, plot = cmd_scan(config), "using 1:2 with lines, '' using 1:6 with lines"
        else:
            chunks, plot = cmd_sample(config), "using 1:6 with points"
        emit(chunks, args.out)
        if args.gnuplot:
            emit([_GNUPLOT.format(path=args.out, plot=plot)], args.out + ".gp")
        return EXIT_OK
    except SystemExit as exc:  # argparse signals usage errors and --help
        return int(exc.code or 0)
    except InvariantViolation as exc:
        code, message = EXIT_USAGE, str(exc)
    except MemoryError as exc:
        # scan and sample hold one block of the grid at a time, so this is a
        # backstop: a run that does not fit in memory is a usage error, not
        # a failed verification.
        code, message = EXIT_USAGE, f"not enough memory for this run ({exc})"
    except OSError as exc:
        code, message = EXIT_IO, f"cannot write output: {exc}"
    sys.stderr.write(f"twopath: {message}\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
