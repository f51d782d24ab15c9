"""Named self-checks over every analytic claim the package makes.

Each check's name, limit and detail are declared once, in ``_CHECKS``.  A
check passes when its residual is below its limit, so a NaN fails.  Every
limit is a named field of ``tolerances.TOL`` (or the chi-square critical
value), never a literal.  The suite is deterministic: sampled test points
come from fixed grids or a fixed-seed stream.

The checks run in the table's groups, the Monte Carlo one only when shots
are given.  A group yields one residual per row; one that raises
InvariantViolation fails each of its checks by name.  Each grid is
evaluated once per run, as rows through the 2x2 formulas of
``qalgebra``: the wave eigenstates and W at the 17 offsets, the 129
pipeline phases, the 512 Robertson triples, the 5 x 41 scan grid and the
nine finite-difference slopes.  The ten Monte Carlo rows are one sampler
call: the run that sampling_determinism draws twice, on the seed's own
stream, first and last, and between them four (phi, phi0) pairs under
each order on child streams 0-7.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

import numpy as np

from . import complementarity as comp
from . import interferometer as ifm
from . import measurement as meas
from . import uncertainty as unc
from .qalgebra import (
    DEFAULT_SEED,
    KET_LOWER,
    KET_UPPER,
    SIGMA_X,
    SIGMA_Z,
    InvariantViolation,
    UnitaryGate,
    _pauli_sum,
    apply,
    inner,
    max_modulus,
    moments,
    odds,
    require_seed,
    require_shots,
    require_states,
    robertson,
    unitarity_residual,
)
from .rng import RandomStream, child_seeds
from .tolerances import TOL

_PHI0_GRID = np.linspace(-math.pi, math.pi, 17)
_T = TypeVar("_T")


class CheckResult(NamedTuple):
    name: str
    passed: bool
    residual: float
    limit: float
    detail: str = ""


class VerificationReport(NamedTuple):
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


#: Every named check, in report order, as (name, limit, detail) rows per
#: group.  A detail's {sigmas:g} reads _WINDOW_SIGMAS at run time.
_CHECKS: dict[str, tuple[tuple[str, float, str], ...]] = {
    "splitter": (
        ("beam_splitter_unitarity", TOL.unit, "B B' = I"),
        ("beam_splitter_conjugation", TOL.identity, "B' sz B = sx"),
        ("lower_port_splits_evenly", TOL.identity, "|<upper|B|lower>|^2 = 1/2"),
    ),
    "complementarity": (
        ("path_blind_on_wave_eigenstates", TOL.comp, "<w|P|w> = 0 for both wave eigenstates"),
        ("wave_blind_on_path_eigenstates", TOL.comp, "<p|W|p> = 0 for both arms"),
        ("path_wave_mutually_unbiased", TOL.comp, "all cross overlaps squared = 1/2"),
        ("wave_eigenbasis_closed_form", TOL.identity, "derived basis matches its closed form"),
        ("wave_operator_pauli_form", TOL.identity, "assembled W = cos(phi0) sx + sin(phi0) sy"),
    ),
    "uncertainty": (
        ("interference_cosine_law", TOL.identity, "<W> = cos(phi - phi0) on the balanced manifold"),
        ("balanced_states_hide_path", TOL.identity, "<P> = 0 along every scan"),
        ("path_spread_unity", TOL.identity, "delta_p = 1"),
        ("wave_spread_sine", TOL.identity, "delta_w = |sin(phi - phi0)|"),
        ("uncertainty_product_saturation", TOL.var,
         "delta_p * delta_w = robertson bound on balanced states"),
        ("bound_vanishes_at_wave_eigenstates", TOL.identity,
         "bound and delta_w vanish at phi = phi0 + k pi"),
        ("sensitivity_matches_wave_spread", TOL.identity, "|d<W>/dphi| = delta_w"),
        ("sensitivity_finite_difference", TOL.finite_diff,
         "slope of the scan matches the analytic sensitivity"),
    ),
    "pipeline": (
        ("pipeline_unit_visibility", TOL.contrast, "full-pipeline fringe reaches unit contrast"),
        ("pipeline_fringe_shape", TOL.identity,
         "fringe is cos(phi) under the library's splitter convention"),
    ),
    "operators": (
        ("wave_operator_periodicity", TOL.period, "W(phi0 + 2 pi) = W(phi0)"),
        ("variance_vanishes_on_eigenstates", TOL.var, "eigenstates of W have zero spread"),
    ),
    "robertson": (
        ("robertson_inequality", TOL.var, "var(a) var(b) >= bound^2 on random triples"),
    ),
    "sampled": (
        ("second_outcome_uniform_pw", meas.CHI2_CRITICAL_1PCT,
         "chi-square of second-measurement counts vs 50/50"),
        ("first_variance_convergence_pw", TOL.window,
         "first-measurement variance within {sigmas:g} standard errors"),
        ("second_outcome_uniform_wp", meas.CHI2_CRITICAL_1PCT,
         "chi-square of second-measurement counts vs 50/50"),
        ("first_variance_convergence_wp", TOL.window,
         "first-measurement variance within {sigmas:g} standard errors"),
        ("sampling_determinism", TOL.flag, "same seed reproduces identical statistics"),
    ),
}


def _worst(residuals: Iterable[float]) -> float:
    """The largest residual, zero if none is positive, NaN if any is NaN."""
    return float(np.max([0.0, *residuals]))


def _run_group(group: str, residuals: Callable[..., Iterator[float]], *args) -> list[CheckResult]:
    """The group's rows of _CHECKS with its residuals, or all failed if it
    raises, or if the setup of one of its arguments raised."""
    rows, note = _CHECKS[group], ""
    try:
        for arg in args:
            if isinstance(arg, InvariantViolation):
                raise arg
        values = [float(value) for value in residuals(*args)]
    except InvariantViolation as exc:
        source = "setup" if any(arg is exc for arg in args) else "group"
        values, note = [math.inf] * len(rows), f" ({source} raised InvariantViolation: {exc})"
    return [
        CheckResult(name, value < limit, value, limit, detail.format(sigmas=_WINDOW_SIGMAS) + note)
        for (name, limit, detail), value in zip(rows, values, strict=True)
    ]


def _setup(build: Callable[..., _T], *args) -> _T | InvariantViolation:
    """What ``build(*args)`` returns, or the InvariantViolation it raises:
    each group that reads it then fails its checks by name."""
    try:
        return build(*args)
    except InvariantViolation as exc:
        return exc


class _WaveBases(NamedTuple):
    """The wave basis at each of the 17 offsets, built once per run: as the
    library derives it and as tested, with the tested eigenstates as rows,
    plus then minus per offset, and each row's W."""

    derived: list[comp.EigenBasis]  # the library's derivation, even under an override
    tested: list[comp.EigenBasis]
    rows: np.ndarray
    waves: np.ndarray


def _wave_bases(override: comp.EigenBasis | None) -> _WaveBases:
    derived = [comp.derive_wave_eigenbasis(phi0) for phi0 in _PHI0_GRID.tolist()]
    tested = [override or basis for basis in derived]
    rows = np.array([v.amplitudes for basis in tested for v in (basis.plus, basis.minus)])
    waves = np.repeat([comp.observable_from_eigensystem(basis).matrix for basis in tested], 2, axis=0)
    return _WaveBases(derived, tested, rows, waves)


def run_verification(
    shots: int | None = None,
    seed: int = DEFAULT_SEED,
    beam_splitter_override: UnitaryGate | None = None,
    wave_basis_override: comp.EigenBasis | None = None,
) -> VerificationReport:
    """Run every named invariant check; pure algebra unless shots is given.

    beam_splitter_override and wave_basis_override substitute a component
    under test for the library's own; they are fault-injection hooks, not
    configuration.  The splitter feeds the splitter and pipeline checks.
    The wave basis feeds every check on the basis or its assembled W except
    the closed-form one, which checks the library's own derivation.  Both
    are built once, before the groups; if a build raises, the groups that
    read it fail.
    """
    seed = require_seed(seed)
    if shots is not None:
        shots = require_shots(shots)
    splitter = _setup(lambda: (beam_splitter_override or ifm.beam_splitter()).matrix)
    bases = _setup(_wave_bases, wave_basis_override)
    checks = [
        *_run_group("splitter", _splitter_residuals, splitter),
        *_run_group("complementarity", _complementarity_residuals, bases),
        *_run_group("uncertainty", _uncertainty_residuals),
        *_run_group("pipeline", _pipeline_residuals, splitter),
        *_run_group("operators", _operator_residuals, bases),
        *_run_group("robertson", _robertson_residuals),
    ]
    if shots is not None:
        checks.extend(_run_group("sampled", _sampled_residuals, shots, seed))
    return VerificationReport(checks=tuple(checks))


def _splitter_residuals(b: np.ndarray) -> Iterator[float]:
    """The splitter is unitary, turns sz into sx and splits the lower port evenly.
    The conjugation comes out transposed, as rows of its columns; sx is symmetric."""
    yield unitarity_residual(b)
    yield max_modulus(apply(b.conj().T, apply(SIGMA_Z, b.T)) - SIGMA_X.matrix)
    yield abs(odds(KET_UPPER, apply(b, KET_LOWER)) - 0.5)


def _complementarity_residuals(bases: _WaveBases) -> Iterator[float]:
    """Path and wave bases are mutually unbiased, and W has its Pauli form."""
    derived, tested, rows, waves = bases
    path_basis = comp.path_eigenbasis()
    arms = np.tile([path_basis.plus.amplitudes, path_basis.minus.amplitudes], (len(tested), 1))
    yield _worst(np.fabs(moments(ifm.path_operator(), rows)[0]))
    yield _worst(np.fabs(moments(waves, arms)[0]))
    yield _worst(comp.is_complementary(path_basis, basis).max_deviation for basis in tested)
    yield _worst(_closed_form_miss(phi0, basis) for phi0, basis in zip(_PHI0_GRID.tolist(), derived))
    yield max_modulus(waves[::2] - ifm._wave_matrices(_PHI0_GRID))


def _closed_form_miss(phi0: float, basis: comp.EigenBasis) -> float:
    """How far each derived vector is from its closed form, up to a global phase."""
    half = 0.5 * comp.canonical_phase(phi0)
    closed_plus = np.array([np.exp(-1j * half), np.exp(1j * half)]) / math.sqrt(2.0)
    closed_minus = np.array([-np.exp(-1j * half), np.exp(1j * half)]) / math.sqrt(2.0)
    return max(1.0 - abs(inner(v, closed))
               for v, closed in ((basis.plus, closed_plus), (basis.minus, closed_minus)))


def _uncertainty_residuals() -> Iterator[float]:
    """Fringe law, spreads, saturation and sensitivity on the 5 x 41 grid.

    The scans do not check the Robertson bound, so a product below it fails
    ``uncertainty_product_saturation`` by name instead of raising.
    """
    phi0s = [float(phi0) for phi0 in _PHI0_GRID[::4]]
    phis = np.linspace(-math.pi, math.pi, 41).tolist()
    n = len(phis)
    # One scan per offset: the grid, then the wave eigenstates phi0 + k pi.
    scans = [ifm._scan_columns(phi0, phis + [phi0 + k * math.pi for k in (-2, -1, 0, 1, 2)])
             for phi0 in phi0s]
    # One scan for every central difference: each centre - step, then + step.
    step = 1e-5
    centres = np.linspace(-math.pi, math.pi, 9)
    w = ifm._scan_columns(0.0, np.column_stack([centres - step, centres + step]).ravel()).w_expect
    slopes = (w[1::2] - w[0::2]) / (2 * step)
    yield _worst(abs(w - math.cos(phi - phi0))
                 for phi0, s in zip(phi0s, scans) for phi, w in zip(phis, s.w_expect))
    yield _worst(abs(p) for s in scans for p in s.p_expect[:n])
    yield _worst(abs(d - 1.0) for s in scans for d in s.delta_p[:n])
    yield _worst(abs(d - abs(math.sin(phi - phi0)))
                 for phi0, s in zip(phi0s, scans) for phi, d in zip(phis, s.delta_w))
    yield _worst(abs(g) for s in scans for g in s.gap[:n])
    yield _worst(m for s in scans for m in np.maximum(s.bound[n:], s.delta_w[n:]))
    yield _worst(abs(unc.sensitivity(phi, phi0) - d)
                 for phi0, s in zip(phi0s, scans) for phi, d in zip(phis, s.delta_w))
    yield _worst(abs(abs(slope) - unc.sensitivity(phi, 0.0))
                 for phi, slope in zip(centres.tolist(), slopes))


def _pipeline_residuals(b: np.ndarray) -> Iterator[float]:
    """Splitter, shifter, splitter, then a path measurement.

    With the library's splitter the fringe is cos(phi) with unit contrast.
    """
    grid = np.linspace(-math.pi, math.pi, 129)
    opened = require_states(apply(b, KET_LOWER.amplitudes[None]))
    shifted = require_states(apply(ifm._shifter_matrices(grid), opened))
    closed = require_states(apply(b, shifted))
    fringe = moments(SIGMA_Z, closed)[0]
    yield abs(1.0 - float(np.max(np.fabs(fringe))))
    yield np.max(np.fabs(fringe - np.cos(grid)))


def _operator_residuals(bases: _WaveBases) -> Iterator[float]:
    """W is 2 pi periodic in phi0, and its eigenstates have zero spread."""
    yield max_modulus(ifm._wave_matrices(_PHI0_GRID + 2 * math.pi) - ifm._wave_matrices(_PHI0_GRID))
    yield _worst(moments(bases.waves, bases.rows)[1])


def _robertson_residuals() -> Iterator[float]:
    """Robertson inequality on deterministic pseudo-random triples."""
    # 512 rows of 10 draws (Pauli coefficients of a and b, theta, xi) in one
    # batch: by counter addressing, 512 successive batches of 10 give the same.
    raw = RandomStream(0xC0FFEE).uniforms(5120).reshape(512, 10).T
    coeffs = (2.0 * raw[:8] - 1.0)[:, :, None, None]
    a, b = _pauli_sum(*coeffs[:4]), _pauli_sum(*coeffs[4:])
    half, xi = 0.5 * (math.pi * raw[8]), 2 * math.pi * raw[9]
    states = require_states(np.column_stack([np.cos(half), np.sin(half) * np.exp(1j * xi)]))
    _, (var_a, var_b), bound = robertson(a, b, states)
    yield _worst(bound ** 2 - var_a * var_b)


#: Half-width of the variance acceptance window, in standard errors.
_WINDOW_SIGMAS = 4.0


def variance_window(mean: float, shots: int) -> float:
    """Acceptance window for the sample variance of +1/-1 outcomes.

    For outcomes of magnitude one the sample variance is 1 - mean^2, so
    its standard error follows from the mean's by the delta method,
    2|mu| sigma / sqrt(n).  The window is _WINDOW_SIGMAS of those; the
    quadratic term sigma^2 _WINDOW_SIGMAS^2 / n keeps it meaningful where
    mu vanishes and the linear term with it.
    """
    sigma_sq = max(1.0 - mean**2, 0.0)
    sigma = math.sqrt(sigma_sq)
    window = (
        _WINDOW_SIGMAS * 2.0 * abs(mean) * sigma / math.sqrt(shots)
        + _WINDOW_SIGMAS**2 * sigma_sq / shots
    )
    # Degenerate direction (certain outcome): the estimate is exact.
    return max(window, 1e-30)


def _sampled_residuals(shots: int, seed: int) -> Iterator[float]:
    """Monte Carlo checks: randomization and convergence at finite shots."""
    orders = list(meas.MeasurementOrder)
    pairs = (2 * math.pi * RandomStream(seed).uniforms(8) - math.pi).reshape(4, 2)
    # The determinism run (path first, phi 0.7, phi0 0.1, the seed's own
    # stream) first and last, so that two parts draw it if the call has two
    # or more; between them each pair under each order, order-major.
    run = (0.7, 0.1)
    phis, phi0s = np.vstack([run, np.tile(pairs, (len(orders), 1)), run]).T
    seeds = child_seeds(seed, np.arange(phis.size - 2, dtype=np.uint64))
    pw = meas.MeasurementOrder.P_THEN_W
    counts = meas.sequential_counts([pw, *(order for order in orders for _ in pairs), pw],
                                    phis, phi0s, shots,
                                    np.concatenate([np.uint64([seed]), seeds, np.uint64([seed])]))
    same = all(c[0] == c[-1] for c in counts)
    stats = meas.row_statistics(counts[0][1:-1], counts[1][1:-1], shots)
    # first_variance and chi2 of each row, by order
    variances, chi2s = stats[[1, 6]].reshape(2, len(orders), len(pairs))
    for order, first_variances, chi2 in zip(orders, variances.tolist(), chi2s):
        misses = []
        for (phi, phi0), first_variance in zip(pairs.tolist(), first_variances):
            mean = 0.0 if order is pw else math.cos(phi - phi0)
            target_var = 1.0 if order is pw else math.sin(phi - phi0) ** 2
            misses.append(abs(first_variance - target_var) / variance_window(mean, shots))
        yield _worst(chi2)
        yield _worst(misses)
    yield 0.0 if same else 1.0


def format_report(report: VerificationReport) -> str:
    """One PASS/FAIL line per named check."""
    lines = []
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(
            f"{status}  {c.name}  (residual {c.residual:.3e} vs limit "
            f"{c.limit:.3e})  {c.detail}"
        )
    tally = sum(1 for c in report.checks if c.passed)
    lines.append(f"{tally}/{len(report.checks)} checks passed")
    return "\n".join(lines)
