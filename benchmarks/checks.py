"""Output checks for the benchmark workloads.

Every check returns a list of problems; an empty list means the output
is correct.  Two kinds of check apply:

- at any seed, the paper's closed forms and the CSV's own bookkeeping
  (scan: w = cos(phi - phi0), p = 0, delta_p = 1, delta_w^2 = bound^2 =
  sin^2(phi - phi0), gap >= -TOL.var; sample: counts add up to shots,
  chi2 recomputed from the counts, means consistent with the counts;
  verify: every analytic check passes);
- at the golden seed, agreement with the golden output captured from the
  seed commit: integer columns and verify's PASS states exactly, float
  columns within a relative tolerance, so that last-ulp changes from a
  rewritten kernel are not failures.
"""

from __future__ import annotations

import math
import re

import numpy as np

from twopath.tolerances import TOL

#: Absolute tolerance of the closed-form identities (2x2 algebra in
#: doubles is accurate to a few 1e-16).
CLOSED_FORM_ATOL = 1e-12
#: Golden float columns: relative tolerance plus an absolute floor for
#: columns that are rounding noise around zero (p_expectation, gap).
GOLDEN_RTOL = 1e-9
GOLDEN_ATOL = 1e-12
#: Sampled means must sit within this many standard errors of their
#: exact value; at 8 sigma a fair sampler trips it with odds ~1e-15 per row.
SAMPLE_SIGMAS = 8.0

SCAN_HEADER = "phi,w_expectation,p_expectation,delta_p,delta_w,robertson_bound,gap"
SAMPLE_HEADER = (
    "phi,phi0,order,shots,first_mean,first_variance,second_mean,"
    "second_variance,n_plus,n_minus,chi2,chi2_pass"
)
SAMPLE_INT_COLUMNS = ("shots", "n_plus", "n_minus", "chi2_pass")
CHI2_CRITICAL_1PCT = 6.635

_VERIFY_LINE = re.compile(r"^(PASS|FAIL)  (\S+)  \(residual ")
_VERIFY_TALLY = re.compile(r"^(\d+)/(\d+) checks passed$")


def options(argv: list[str]) -> dict[str, str]:
    """``--flag value`` pairs of a workload's argv (all its flags take values)."""
    return dict(zip(argv[1::2], argv[2::2]))


def _table(text: str, header: str) -> tuple[dict[str, np.ndarray], list[str]]:
    lines = text.split("\n")
    if lines[0] != header:
        return {}, [f"header is {lines[0]!r}, expected {header!r}"]
    if lines[-1] != "" or any(not line for line in lines[1:-1]):
        return {}, ["output must be LF-terminated rows with no blank lines"]
    names = header.split(",")
    cells = [line.split(",") for line in lines[1:-1]]
    if any(len(row) != len(names) for row in cells):
        return {}, ["a row has the wrong number of fields"]
    columns = {}
    for k, name in enumerate(names):
        raw = [row[k] for row in cells]
        if name == "order":
            columns[name] = np.array(raw)
        elif name in SAMPLE_INT_COLUMNS:
            columns[name] = np.array([int(v) for v in raw], dtype=np.int64)
        else:
            columns[name] = np.array([float(v) for v in raw])
    return columns, []


def _flag(problems: list[str], bad: np.ndarray, what: str) -> None:
    count = int(np.count_nonzero(bad))
    if count:
        problems.append(f"{what}: {count} row(s) violate it")


def _grid(opts: dict[str, str]) -> np.ndarray:
    """The CLI's phase grid; --from/--to default to -pi/pi (README)."""
    start = float(opts.get("--from", -math.pi))
    end = float(opts.get("--to", math.pi))
    return np.linspace(start, end, int(opts["--steps"]))


def check_scan(argv: list[str], text: str) -> list[str]:
    opts = options(argv)
    cols, problems = _table(text, SCAN_HEADER)
    if problems:
        return problems
    grid = _grid(opts)
    if cols["phi"].shape != grid.shape or not np.array_equal(cols["phi"], grid):
        return [f"phi column is not the {grid.size}-point grid"]
    d = cols["phi"] - float(opts["--phi0"])
    sin2 = np.sin(d) ** 2
    _flag(problems, np.abs(cols["w_expectation"] - np.cos(d)) > CLOSED_FORM_ATOL, "w = cos(phi - phi0)")
    _flag(problems, np.abs(cols["p_expectation"]) > CLOSED_FORM_ATOL, "p = 0")
    _flag(problems, np.abs(cols["delta_p"] - 1.0) > CLOSED_FORM_ATOL, "delta_p = 1")
    _flag(problems, np.abs(cols["delta_w"] ** 2 - sin2) > CLOSED_FORM_ATOL, "delta_w^2 = sin^2")
    _flag(problems, np.abs(cols["robertson_bound"] ** 2 - sin2) > CLOSED_FORM_ATOL, "bound^2 = sin^2")
    _flag(problems, cols["gap"] < -TOL.var, "gap >= -TOL.var")
    return problems


def check_sample(argv: list[str], text: str) -> list[str]:
    opts = options(argv)
    cols, problems = _table(text, SAMPLE_HEADER)
    if problems:
        return problems
    orders = ["pw", "wp"] if opts["--order"] == "both" else [opts["--order"]]
    grid = _grid(opts)
    phi0 = float(opts["--phi0"])
    shots = int(opts["--shots"])
    if cols["phi"].size != grid.size * len(orders):
        return [f"{cols['phi'].size} rows, expected {grid.size * len(orders)}"]
    _flag(problems, cols["phi"] != np.repeat(grid, len(orders)), "phi column is the grid")
    _flag(problems, cols["order"] != np.tile(orders, grid.size), "order column")
    _flag(problems, cols["phi0"] != phi0, "phi0 column")
    _flag(problems, cols["shots"] != shots, "shots column")

    n_plus, n_minus = cols["n_plus"], cols["n_minus"]
    _flag(problems, (n_plus < 0) | (n_minus < 0) | (n_plus + n_minus != shots), "n_plus + n_minus = shots")
    half = shots / 2.0
    chi2 = ((n_plus - half) ** 2 + (n_minus - half) ** 2) / half
    _flag(problems, ~np.isclose(cols["chi2"], chi2, rtol=1e-12, atol=0.0), "chi2 from the counts")
    _flag(problems, cols["chi2_pass"] != (cols["chi2"] < CHI2_CRITICAL_1PCT), "chi2_pass = chi2 < 6.635")
    m2 = (n_plus - n_minus) / shots
    _flag(problems, np.abs(cols["second_mean"] - m2) > CLOSED_FORM_ATOL, "second_mean from the counts")
    for which in ("first", "second"):
        mean, var = cols[f"{which}_mean"], cols[f"{which}_variance"]
        _flag(problems, np.abs(var - (1.0 - mean**2)) > CLOSED_FORM_ATOL, f"{which}_variance = 1 - mean^2")

    # Born-rule means: the second outcome is 50/50 in both orders; the
    # first is 50/50 for a path measurement, cos(phi - phi0) for a wave one.
    first_exact = np.where(cols["order"] == "wp", np.cos(cols["phi"] - phi0), 0.0)
    for which, exact in (("first", first_exact), ("second", np.zeros_like(first_exact))):
        window = SAMPLE_SIGMAS * np.sqrt((1.0 - exact**2) / shots) + 20.0 / shots
        _flag(problems, np.abs(cols[f"{which}_mean"] - exact) > window, f"{which}_mean within {SAMPLE_SIGMAS:g} sigma")
    return problems


def verify_states(text: str) -> tuple[list[tuple[str, str]], list[str]]:
    """(state, name) per check line of a verify report, plus format problems."""
    lines = text.rstrip("\n").split("\n")
    states = []
    for line in lines[:-1]:
        match = _VERIFY_LINE.match(line)
        if match is None:
            return [], [f"unparsable verify line {line!r}"]
        states.append((match.group(1), match.group(2)))
    tally = _VERIFY_TALLY.match(lines[-1])
    passed = sum(state == "PASS" for state, _ in states)
    if tally is None or (int(tally.group(1)), int(tally.group(2))) != (passed, len(states)):
        return [], [f"tally line {lines[-1]!r} does not match {passed}/{len(states)}"]
    return states, []


def check_verify(text: str, code: int, golden_text: str, statistical: set[str]) -> list[str]:
    """Closed checks of a verify report.

    The check names must be those of the golden report; every analytic
    check must pass at any seed.  Statistical checks may fail at a seed
    other than the golden one (a fair sampler fails a 1% battery on some
    seeds); the exit code must still say whether all checks passed.
    """
    states, problems = verify_states(text)
    if problems:
        return problems
    golden_states, _ = verify_states(golden_text)
    if [n for _, n in states] != [n for _, n in golden_states]:
        return ["check names differ from the golden report"]
    failed = [n for s, n in states if s == "FAIL"]
    problems += [f"analytic check {n} failed" for n in failed if n not in statistical]
    if code != (1 if failed else 0):
        problems.append(f"exit code {code} with {len(failed)} failed check(s)")
    return problems


def statistical_failures(text: str, statistical: set[str]) -> int:
    states, _ = verify_states(text)
    return sum(1 for s, n in states if s == "FAIL" and n in statistical)


def compare_golden(kind: str, text: str, golden_text: str) -> list[str]:
    """Agreement with the golden output at the golden seed."""
    if kind == "verify":
        if verify_states(text)[0] != verify_states(golden_text)[0]:
            return ["verify PASS/FAIL states differ from the golden report"]
        return []
    header = SCAN_HEADER if kind == "scan" else SAMPLE_HEADER
    cols, problems = _table(text, header)
    gold, _ = _table(golden_text, header)
    if problems:
        return problems
    if cols["phi"].shape != gold["phi"].shape:
        return [f"{cols['phi'].size} rows, golden has {gold['phi'].size}"]
    for name, gold_col in gold.items():
        col = cols[name]
        if gold_col.dtype.kind == "f":
            bad = ~np.isclose(col, gold_col, rtol=GOLDEN_RTOL, atol=GOLDEN_ATOL)
        else:
            bad = col != gold_col
        _flag(problems, bad, f"golden {name}")
    return problems


def check_output(
    argv: list[str],
    text: str,
    code: int,
    golden_text: str,
    at_golden_seed: bool,
    statistical: set[str],
) -> list[str]:
    """All checks that apply to one output of the workload with this argv."""
    kind = argv[0]
    if kind == "verify":
        problems = check_verify(text, code, golden_text, statistical)
    else:
        problems = [] if code == 0 else [f"exit code {code}"]
        problems += check_scan(argv, text) if kind == "scan" else check_sample(argv, text)
    if at_golden_seed and not problems:
        problems += compare_golden(kind, text, golden_text)
    return problems
