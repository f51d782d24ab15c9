"""Named self-checks over every analytic claim the package makes.

Each check reports a residual and a limit; a check passes when the
residual stays below the limit.  Every limit is a named field of
``tolerances.TOL`` (or the chi-square critical value), never a literal.
The suite is deterministic: sampled test points come from fixed grids or
a fixed-seed stream.

The checks run in groups: splitter, complementarity, uncertainty,
pipeline, operators and Robertson, then the Monte Carlo checks when shots
are given.  Each grid is evaluated once per run, as rows through the
stacked kernels of ``qalgebra``: the wave eigenstates and W at the 17
offsets, the 129 pipeline phases, the 512 Robertson triples, the 5 x 41
scan grid and the nine finite-difference slopes.  The eight Monte Carlo
rows, four (phi, phi0) pairs under each order, are one sampler call, in
which row r draws from child stream r of the seed.  The override
arguments exist so tests can inject a faulty component and watch the
matching check fail by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from . import complementarity as comp
from . import interferometer as ifm
from . import measurement as meas
from . import uncertainty as unc
from .qalgebra import (
    KET_LOWER,
    KET_UPPER,
    SIGMA_X,
    SIGMA_Z,
    Observable,
    UnitaryGate,
    _apply_rows,
    _half_commutator,
    _matrix_elements,
    _moments,
    _pauli_sum,
    require_seed,
    require_states,
)
from .rng import RandomStream, child_seeds
from .tolerances import TOL

_PHI0_GRID = np.linspace(-math.pi, math.pi, 17)
_PHI_GRID = np.linspace(-math.pi, math.pi, 41)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    limit: float
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


class _Offset(NamedTuple):
    """What the checks read at one setup offset phi0, built once per run."""

    phi0: float
    derived: comp.EigenBasis  # the library's derivation, even under an override
    basis: comp.EigenBasis  # the wave basis under test
    assembled: Observable  # W assembled from basis


def _worst(residuals: Iterable[float]) -> float:
    """The largest residual, or zero if none is positive."""
    return max([0.0, *residuals])


def _check(name: str, residual: float, limit: float, detail: str = "") -> CheckResult:
    return CheckResult(
        name=name,
        passed=residual < limit,
        residual=float(residual),
        limit=float(limit),
        detail=detail,
    )


def run_verification(
    shots: int | None = None,
    seed: int = 1,
    beam_splitter_override: UnitaryGate | None = None,
    wave_basis_override: comp.EigenBasis | None = None,
) -> VerificationReport:
    """Run every named invariant check; pure algebra unless shots is given.

    beam_splitter_override and wave_basis_override substitute a component
    under test for the library's own; they are fault-injection hooks, not
    configuration.  The splitter feeds the splitter and pipeline checks.
    The wave basis feeds every check on the basis or its assembled W except
    the closed-form one, which checks the library's own derivation.
    """
    seed = require_seed(seed)
    splitter = beam_splitter_override or ifm.beam_splitter()
    offsets = []
    for phi0 in map(float, _PHI0_GRID):
        derived = comp.derive_wave_eigenbasis(phi0)
        basis = wave_basis_override or derived
        offsets.append(_Offset(phi0, derived, basis, comp.observable_from_eigensystem(basis)))
    # The wave eigenstates as rows, plus then minus per offset, and each row's W.
    rows = np.array([v.amplitudes for o in offsets for v in (o.basis.plus, o.basis.minus)])
    waves = np.repeat([o.assembled.matrix for o in offsets], 2, axis=0)

    checks = [
        *_splitter_checks(splitter.matrix),
        *_complementarity_checks(offsets, rows, waves),
        *_uncertainty_checks(),
        *_pipeline_checks(splitter.matrix),
        *_operator_checks(rows, waves),
        _robertson_check(),
    ]
    if shots is not None:
        checks.extend(_sampled_checks(shots, seed))
    return VerificationReport(checks=tuple(checks))


def _splitter_checks(b: np.ndarray) -> list[CheckResult]:
    """The splitter is unitary, turns sz into sx and splits the lower port evenly."""
    p_upper = abs(np.vdot(KET_UPPER.amplitudes, b @ KET_LOWER.amplitudes)) ** 2
    return [
        _check("beam_splitter_unitarity", np.max(np.abs(b @ b.conj().T - np.eye(2))),
               TOL.unit, "B B' = I"),
        _check("beam_splitter_conjugation",
               np.max(np.abs(b.conj().T @ SIGMA_Z.matrix @ b - SIGMA_X.matrix)),
               TOL.identity, "B' sz B = sx"),
        _check("lower_port_splits_evenly", abs(p_upper - 0.5),
               TOL.identity, "|<upper|B|lower>|^2 = 1/2"),
    ]


def _complementarity_checks(offsets: list[_Offset], rows: np.ndarray,
                            waves: np.ndarray) -> list[CheckResult]:
    """Path and wave bases are mutually unbiased, and W has its Pauli form."""
    path_basis = comp.path_eigenbasis()
    arms = np.tile([path_basis.plus.amplitudes, path_basis.minus.amplitudes], (len(offsets), 1))
    return [
        _check("path_blind_on_wave_eigenstates",
               _worst(np.abs(_matrix_elements(ifm.path_operator().matrix, rows).real)),
               TOL.comp, "<w|P|w> = 0 for both wave eigenstates"),
        _check("wave_blind_on_path_eigenstates",
               _worst(np.abs(_matrix_elements(waves, arms).real)),
               TOL.comp, "<p|W|p> = 0 for both arms"),
        _check("path_wave_mutually_unbiased",
               _worst(comp.is_complementary(path_basis, o.basis).max_deviation
                      for o in offsets),
               TOL.comp, "all cross overlaps squared = 1/2"),
        _check("wave_eigenbasis_closed_form",
               _worst(_closed_form_miss(o.phi0, o.derived) for o in offsets),
               TOL.identity, "derived basis matches its closed form"),
        _check("wave_operator_pauli_form",
               np.max(np.abs(np.array([o.assembled.matrix for o in offsets])
                             - ifm._wave_matrices([o.phi0 for o in offsets]))),
               TOL.identity, "assembled W = cos(phi0) sx + sin(phi0) sy"),
    ]


def _closed_form_miss(phi0: float, basis: comp.EigenBasis) -> float:
    """How far each derived vector is from its closed form, up to a global phase."""
    half = 0.5 * comp.canonical_phase(phi0)
    closed_plus = np.array([np.exp(-1j * half), np.exp(1j * half)]) / math.sqrt(2.0)
    closed_minus = np.array([-np.exp(-1j * half), np.exp(1j * half)]) / math.sqrt(2.0)
    return max(
        1.0 - abs(np.vdot(basis.plus.amplitudes, closed_plus)),
        1.0 - abs(np.vdot(basis.minus.amplitudes, closed_minus)),
    )


def _uncertainty_checks() -> list[CheckResult]:
    """Fringe law, spreads, saturation and sensitivity on the 5 x 41 grid."""
    phi0s = [float(phi0) for phi0 in _PHI0_GRID[::4]]
    phis = [float(phi) for phi in _PHI_GRID]
    n = len(phis)
    # One scan per offset: the grid, then the wave eigenstates phi0 + k pi.
    scans = [ifm.interference_scan(phi0, phis + [phi0 + k * math.pi for k in (-2, -1, 0, 1, 2)])
             for phi0 in phi0s]
    # One scan for every central difference: each centre - step, then + step.
    step = 1e-5
    centres = np.linspace(-math.pi, math.pi, 9)
    w = ifm.interference_scan(0.0, np.column_stack([centres - step, centres + step]).ravel()).w_expect
    slopes = (w[1::2] - w[0::2]) / (2 * step)
    return [
        _check("interference_cosine_law",
               _worst(abs(w - math.cos(phi - phi0))
                      for phi0, s in zip(phi0s, scans) for phi, w in zip(phis, s.w_expect)),
               TOL.identity, "<W> = cos(phi - phi0) on the balanced manifold"),
        _check("balanced_states_hide_path", _worst(abs(p) for s in scans for p in s.p_expect[:n]),
               TOL.identity, "<P> = 0 along every scan"),
        _check("path_spread_unity", _worst(abs(d - 1.0) for s in scans for d in s.delta_p[:n]),
               TOL.identity, "delta_p = 1"),
        _check("wave_spread_sine",
               _worst(abs(d - abs(math.sin(phi - phi0)))
                      for phi0, s in zip(phi0s, scans) for phi, d in zip(phis, s.delta_w)),
               TOL.identity, "delta_w = |sin(phi - phi0)|"),
        _check("uncertainty_product_saturation", _worst(abs(g) for s in scans for g in s.gap[:n]),
               TOL.var, "delta_p * delta_w = robertson bound on balanced states"),
        _check("bound_vanishes_at_wave_eigenstates",
               _worst(max(b, d) for s in scans for b, d in zip(s.bound[n:], s.delta_w[n:])),
               TOL.identity, "bound and delta_w vanish at phi = phi0 + k pi"),
        _check("sensitivity_matches_wave_spread",
               _worst(abs(unc.sensitivity(phi, phi0) - d)
                      for phi0, s in zip(phi0s, scans) for phi, d in zip(phis, s.delta_w)),
               TOL.identity, "|d<W>/dphi| = delta_w"),
        _check("sensitivity_finite_difference",
               _worst(abs(abs(slope) - unc.sensitivity(phi, 0.0))
                      for phi, slope in zip(centres.tolist(), slopes)),
               TOL.finite_diff, "slope of the scan matches the analytic sensitivity"),
    ]


def _pipeline_checks(b: np.ndarray) -> list[CheckResult]:
    """Splitter, shifter, splitter, then a path measurement.

    With the library's splitter the fringe is cos(phi) with unit contrast.
    """
    grid = np.linspace(-math.pi, math.pi, 129)
    opened = require_states(_apply_rows(b, KET_LOWER.amplitudes[None]))
    shifted = require_states(_apply_rows(ifm._shifter_matrices(grid), opened))
    closed = require_states(_apply_rows(b, shifted))
    fringe = _matrix_elements(SIGMA_Z.matrix, closed).real
    return [
        _check("pipeline_unit_visibility", abs(1.0 - float(np.max(np.abs(fringe)))),
               TOL.contrast, "full-pipeline fringe reaches unit contrast"),
        _check("pipeline_fringe_shape", np.max(np.abs(fringe - np.cos(grid))),
               TOL.identity, "fringe is cos(phi) under the library's splitter convention"),
    ]


def _operator_checks(rows: np.ndarray, waves: np.ndarray) -> list[CheckResult]:
    """W is 2 pi periodic in phi0, and its eigenstates have zero spread."""
    return [
        _check("wave_operator_periodicity",
               np.max(np.abs(ifm._wave_matrices(_PHI0_GRID + 2 * math.pi)
                             - ifm._wave_matrices(_PHI0_GRID))),
               TOL.period, "W(phi0 + 2 pi) = W(phi0)"),
        _check("variance_vanishes_on_eigenstates", _worst(_moments(waves, rows)[1]),
               TOL.var, "eigenstates of W have zero spread"),
    ]


def _robertson_check() -> CheckResult:
    """Robertson inequality on deterministic pseudo-random triples."""
    # 512 rows of 10 draws (Pauli coefficients of a and b, theta, xi) in one
    # batch: by counter addressing, 512 successive batches of 10 give the same.
    raw = RandomStream(0xC0FFEE).uniforms(5120).reshape(512, 10).T
    coeffs = (2.0 * raw[:8] - 1.0)[:, :, None, None]
    a, b = _pauli_sum(*coeffs[:4]), _pauli_sum(*coeffs[4:])
    half, xi = 0.5 * (math.pi * raw[8]), 2 * math.pi * raw[9]
    states = require_states(np.column_stack([np.cos(half), np.sin(half) * np.exp(1j * xi)]))
    excess = _half_commutator(a, b, states) ** 2 - _moments(a, states)[1] * _moments(b, states)[1]
    return _check("robertson_inequality", _worst(excess),
                  TOL.var, "var(a) var(b) >= bound^2 on random triples")


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


def _sampled_checks(shots: int, seed: int) -> list[CheckResult]:
    """Monte Carlo checks: randomization and convergence at finite shots."""
    checks: list[CheckResult] = []
    orders = list(meas.MeasurementOrder)
    pairs = (2 * math.pi * RandomStream(seed).uniforms(8) - math.pi).reshape(4, 2)
    # Eight rows, each pair under each order, order-major: row r is one
    # experiment on child stream r of the seed.
    phis, phi0s = np.tile(pairs, (len(orders), 1)).T
    counts = meas.sequential_counts([order for order in orders for _ in pairs], phis, phi0s,
                                    shots, child_seeds(seed, np.arange(phis.size, dtype=np.uint64)))
    n_first, n_second = (c.reshape(len(orders), len(pairs)).tolist() for c in counts)
    for order, firsts, seconds in zip(orders, n_first, n_second):
        worst_chi2 = worst_var = 0.0
        for (phi, phi0), n1, n2 in zip(pairs.tolist(), firsts, seconds):
            chi2, _ = meas.uniformity_test((n2, shots - n2))
            worst_chi2 = max(worst_chi2, chi2)
            if order is meas.MeasurementOrder.P_THEN_W:
                mean, target_var = 0.0, 1.0
            else:
                mean = math.cos(phi - phi0)
                target_var = math.sin(phi - phi0) ** 2
            first_variance = meas.outcome_moments(n1, shots)[1]
            worst_var = max(worst_var, abs(first_variance - target_var) / variance_window(mean, shots))
        tag = order.value
        checks.append(_check(f"second_outcome_uniform_{tag}", worst_chi2, meas.CHI2_CRITICAL_1PCT,
                             "chi-square of second-measurement counts vs 50/50"))
        checks.append(_check(f"first_variance_convergence_{tag}", worst_var, TOL.window,
                             f"first-measurement variance within {_WINDOW_SIGMAS:g} standard errors"))

    stats_a = meas.sequential_experiment(
        meas.MeasurementOrder.P_THEN_W, 0.7, 0.1, shots, RandomStream(seed)
    )
    stats_b = meas.sequential_experiment(
        meas.MeasurementOrder.P_THEN_W, 0.7, 0.1, shots, RandomStream(seed)
    )
    checks.append(_check("sampling_determinism", 0.0 if stats_a == stats_b else 1.0,
                         TOL.flag, "same seed reproduces identical statistics"))
    return checks


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
