"""Command-line front end: phase scans, Monte Carlo runs, verification.

Subcommands:
  scan     analytic interference scan with uncertainty columns (CSV)
  sample   sequential measurement Monte Carlo (CSV), deterministic per seed
  verify   run the named invariant suite, one PASS/FAIL line per check

Every number in either CSV reads as "%.17g" prints it, and both are
printed by output.format_rows in numpy: scan's doubles, and sample's
columns with its order as text.  sample takes at most MAX_SAMPLE_SHOTS
shots a row, so that its float64 columns hold its counts exactly.

An argv is a subcommand, then its flags from the table COMMANDS in any
order, each spelled in full as ``--flag value`` or ``--flag=value``, or
alone for a switch.  The token after a flag is its value even if it starts
with "-", and a flag given twice keeps its last value.  ``-h`` or
``--help`` prints the help of twopath or of the subcommand, through
output.emit.  The table is read by a few lines of this module, not by
argparse, whose import with gettext and locale cost a run more start-up
than all of twopath's own modules.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error
(any subcommand whose --out file or stdout, say on a full disk, cannot be
written).  Every usage error, the parser's among them, is one
"twopath: ..." line on stderr.

A run imports only the modules its subcommand executes: scan loads output,
interferometer, qalgebra and tolerances beside this module; sample adds
measurement and rng, imported by cmd_sample; verify adds verify and,
through it, the rest of the package.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from typing import Iterator, NamedTuple

import numpy as np

from .output import emit, format_rows
from .interferometer import interference_scan
from .qalgebra import DEFAULT_SEED, InvariantViolation, require_finite_angle, require_seed, require_shots

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

#: The most shots a sample row may have: sample's CSV block is float64,
#: which holds shots, n_plus and n_minus exactly only up to 2^53.
MAX_SAMPLE_SHOTS = 2**53

#: The most grid points a run may have.  No array that long is built any
#: more, since the grid comes in blocks of BLOCK_POINTS; the value, numpy's
#: limit for one float64 array, keeps the --steps values accepted today.
MAX_STEPS = 2**60 - 1

#: The values of sample's --order: either MeasurementOrder value, or both.
ORDERS = ("pw", "wp", "both")
#: RunConfig's angle fields, in radians; --degrees converts the ones given.
ANGLES = ("phi0", "phi_start", "phi_end")

#: Grid points per block.  ``scan`` and ``sample`` build, evaluate, format
#: and write one block before they start the next, so their memory does not
#: grow with --steps.  A grid of up to this many phases, both orders of a
#: 2001-point sample among them, stays one sampler call.
BLOCK_POINTS = 2048

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


class _RunFields(NamedTuple):
    phi0: float = 0.0
    phi_start: float = -math.pi
    phi_end: float = math.pi
    steps: int = 181
    shots: int = 100_000
    seed: int = DEFAULT_SEED
    order: str = "both"


class RunConfig(_RunFields):
    """Validated run parameters shared by the scan and sample commands."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RunConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.steps < 1:
            raise InvariantViolation(f"steps must be >= 1, got {self.steps}")
        if self.steps > MAX_STEPS:
            raise InvariantViolation(f"steps must be <= {MAX_STEPS}, got {self.steps}")
        for name in ANGLES:
            require_finite_angle(getattr(self, name), name)
        if self.phi_start > self.phi_end:
            raise InvariantViolation(
                f"phi range is inverted: {self.phi_start} > {self.phi_end}"
            )
        if self.phi_end - self.phi_start == math.inf:  # finite, ordered ends can only overflow
            raise InvariantViolation(
                f"phi range {self.phi_start} to {self.phi_end} is wider than a double can hold"
            )
        if require_shots(self.shots) > MAX_SAMPLE_SHOTS:
            raise InvariantViolation(
                f"shots must be <= {MAX_SAMPLE_SHOTS} (2**53), got {self.shots}"
            )
        require_seed(self.seed)
        if self.order not in ORDERS:
            *values, last = ORDERS
            raise InvariantViolation(f"order must be {', '.join(values)}, or {last}, got {self.order!r}")
        return self

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
    every row's two +1 counts, one row_statistics call and one
    format_rows call; so does a run of any --shots that RunConfig accepts.
    """
    from . import measurement as meas, rng

    values = [order.value for order in meas.MeasurementOrder] if config.order == "both" else [config.order]
    shots, phi0 = config.shots, config.phi0
    yield ",".join(SAMPLE_COLUMNS) + "\n"
    first_row = 0
    for grid in config.grid():
        phis = np.repeat(grid, len(values))
        codes = np.tile(np.arange(len(values)), grid.size)
        orders = np.array(values, dtype=object).take(codes)
        seeds = rng.child_seeds(config.seed, np.arange(first_row, first_row + phis.size, dtype=np.uint64))
        first_row += phis.size
        n_first, n_second = meas.sequential_counts(orders, phis, np.full(phis.size, phi0), shots, seeds)
        block = np.column_stack([phis, np.full(phis.size, phi0), codes, np.full(phis.size, shots),
                                 *meas.row_statistics(n_first, n_second, shots)])
        yield from format_rows(block, text=(SAMPLE_COLUMNS.index("order"), values))


_GNUPLOT = """set datafile separator ','
set key autotitle columnhead
set xlabel 'phi (rad)'
plot '{path}' {plot}
"""


class Flag(NamedTuple):
    """One flag of a subcommand: the key its value is stored under, how the
    value is read, its default and its help line.  ``kind`` is int, float or
    str for a flag that takes a value, the tuple of the values it accepts,
    or None for a switch, which takes none and is True when given."""

    dest: str
    kind: object
    default: object
    help: str


#: RunConfig's defaults by field; a flag's dest is the field it sets.
_RUN = RunConfig._field_defaults


def _grid_flags(steps: int) -> dict[str, Flag]:
    """The flags scan and sample share; they differ in the default --steps."""
    return {
        "--phi0": Flag("phi0", float, _RUN["phi0"], "setup offset in radians"),
        "--from": Flag("phi_start", float, None, "scan start (default -pi, or -180 with --degrees)"),
        "--to": Flag("phi_end", float, None, "scan end (default pi, or 180 with --degrees)"),
        "--steps": Flag("steps", int, steps, "number of grid points"),
        "--out": Flag("out", str, None, "output path (default stdout)"),
        "--degrees": Flag("degrees", None, False, "interpret input angles as degrees"),
        "--gnuplot": Flag("gnuplot", None, False, "also write a gnuplot script next to --out"),
    }


#: The flag table: each subcommand's help line and its flags by spelling.
#: A flag is given only in full, as ``--flag value`` or ``--flag=value``.
COMMANDS = {
    "scan": ("analytic interference scan (CSV)", _grid_flags(_RUN["steps"])),
    "sample": ("sequential-measurement Monte Carlo (CSV)", {
        **_grid_flags(9),
        "--shots": Flag("shots", int, _RUN["shots"],
                        "shots per row, at most 2**53 (the CSV's counts are exact doubles)"),
        "--seed": Flag("seed", int, _RUN["seed"], "base stream seed"),
        "--order": Flag("order", ORDERS, _RUN["order"], "measurement order(s) to run"),
    }),
    "verify": ("run the named invariant suite", {
        "--shots": Flag("shots", int, None, "also run Monte Carlo checks at this shot count"),
        "--seed": Flag("seed", int, _RUN["seed"], "stream seed"),
    }),
}

_HELP = ("-h", "--help")
_KIND_NAMES = {int: "an integer", float: "a number"}


def _one_of(values) -> str:
    return f"{', '.join(values[:-1])} or {values[-1]}"


class Parser:
    """Reads an argv by a flag table, as the module docstring describes,
    and writes the help of each subcommand from it."""

    def __init__(self, commands: dict) -> None:
        self.commands = commands
        self.defaults = {
            name: {flag.dest: flag.default for flag in flags.values()}
            for name, (_, flags) in commands.items()
        }

    def parse(self, argv: list[str]) -> tuple[str | None, dict | None]:
        """The subcommand and its values by dest, every flag not given at
        its default; or, for help, the subcommand (None at the top) and
        None.  A usage error raises InvariantViolation."""
        if not argv:
            raise InvariantViolation(
                f"missing subcommand: expected {_one_of(list(self.commands))} (see twopath --help)"
            )
        command, *rest = argv
        if command in _HELP:
            return None, None
        if command not in self.commands:
            raise InvariantViolation(
                f"unknown subcommand {command!r}: expected {_one_of(list(self.commands))}"
            )
        flags, values = self.commands[command][1], dict(self.defaults[command])
        args = iter(rest)
        for arg in args:
            if arg in _HELP:
                return command, None
            name, given, value = arg.partition("=")
            flag = flags.get(name)
            if flag is None:
                raise InvariantViolation(
                    f"unknown argument {arg!r} for {command} (see twopath {command} --help)"
                )
            if flag.kind is None:
                if given:
                    raise InvariantViolation(f"{name} takes no value, got {arg!r}")
                values[flag.dest] = True
                continue
            if not given:
                value = next(args, None)
                if value is None:
                    raise InvariantViolation(f"{name} needs a value")
            values[flag.dest] = _read(name, flag.kind, value)
        return command, values

    def help(self, command: str | None) -> str:
        """The help text of a subcommand, or of twopath itself for None."""
        if command is None:
            lines = [
                f"usage: twopath {{{','.join(self.commands)}}} [FLAG ...]",
                "",
                "Ideal two-path interferometer: scans, sampling, verification.",
                "",
                "subcommands:",
                *(f"  {name:<8}{summary}" for name, (summary, _) in self.commands.items()),
                "",
                "twopath SUBCOMMAND --help lists the flags of a subcommand.",
            ]
            return "\n".join(lines) + "\n"
        summary, flags = self.commands[command]
        rows = [("-h, --help", "show this help and exit")]
        for spelling, flag in flags.items():
            if flag.kind is None:
                rows.append((spelling, flag.help))
                continue
            meta = "|".join(flag.kind) if isinstance(flag.kind, tuple) else flag.dest.upper()
            default = "" if flag.default is None else f"; default {flag.default}"
            rows.append((f"{spelling} {meta}", flag.help + default))
        width = max(len(left) for left, _ in rows) + 2
        lines = [
            f"usage: twopath {command} [--flag VALUE | --flag=VALUE | --switch] ...",
            "",
            summary,
            "",
            "flags:",
            *(f"  {left:<{width}}{right}" for left, right in rows),
        ]
        return "\n".join(lines) + "\n"


def _read(name: str, kind, text: str):
    """The value of flag ``name`` from its text, read as ``kind`` says."""
    if isinstance(kind, tuple):
        if text in kind:
            return text
        raise InvariantViolation(f"{name} must be {_one_of(kind)}, got {text!r}")
    try:
        return kind(text)
    except ValueError:
        raise InvariantViolation(f"{name} must be {_KIND_NAMES[kind]}, got {text!r}") from None


@functools.cache
def build_parser() -> Parser:
    """The parser of the flag table, built on the first call; main uses it."""
    return Parser(COMMANDS)


def main(argv: list[str] | None = None) -> int:
    """Parse, build, run and write; every failure maps to one exit code."""
    parser = build_parser()
    try:
        command, args = parser.parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            emit([parser.help(command)], None)
            return EXIT_OK
        if command == "verify":
            from . import verify

            report = verify.run_verification(**args)
            emit([verify.format_report(report) + "\n"], None)
            return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED

        out, gnuplot, degrees = args.pop("out"), args.pop("gnuplot"), args.pop("degrees")
        # an unset --from or --to keeps RunConfig's -pi or pi, equal to radians(-180.0) or radians(180.0)
        config = RunConfig(**{name: math.radians(value) if degrees and name in ANGLES else value
                              for name, value in args.items() if value is not None})
        if gnuplot and out is None:
            raise InvariantViolation("--gnuplot requires --out")
        if gnuplot and os.path.exists(out) and not os.path.isfile(out):
            raise InvariantViolation(f"--gnuplot requires --out to be a regular file, got {out!r}")
        if gnuplot and os.path.dirname(os.path.realpath(out)) != os.path.dirname(os.path.realpath(out + ".gp")):
            raise InvariantViolation(f"--gnuplot requires --out to resolve beside {out + '.gp'!r}, got {out!r}")
        if command == "scan":
            chunks, plot = cmd_scan(config), "using 1:2 with lines, '' using 1:6 with lines"
        else:
            chunks, plot = cmd_sample(config), "using 1:6 with points"
        emit(chunks, out)
        if gnuplot:
            # inside a single-quoted gnuplot string, '' stands for one '
            emit([_GNUPLOT.format(path=out.replace("'", "''"), plot=plot)], out + ".gp")
        return EXIT_OK
    except InvariantViolation as exc:  # usage errors, the parser's among them
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
