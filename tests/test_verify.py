"""The named check suite: green by default, red under injected faults."""

import ast
import hashlib
import itertools
import math
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from support import count_calls, force_parts, patch_everywhere, perturbed_splitter, swapped_lanes
from test_golden import GOLDEN
from twopath import complementarity, interferometer, measurement, qalgebra, rng, uncertainty, verify
from twopath.cli import main
from twopath.complementarity import path_eigenbasis
from twopath.verify import format_report, run_verification


def sampled_checks(shots, seed):
    """The Monte Carlo group's checks alone, as run_verification builds them."""
    return verify._run_group("sampled", verify._sampled_residuals, shots, seed)


def table_names(*groups):
    return [name for group in groups for name, _, _ in verify._CHECKS[group]]


class TestHealthySuite:
    def test_all_checks_pass(self):
        report = run_verification()
        assert report.all_passed
        assert report.failures == ()

    def test_expected_checks_present(self):
        # the report holds every row of the table, in order, and nothing else
        analytic = table_names(*(group for group in verify._CHECKS if group != "sampled"))
        assert [c.name for c in run_verification().checks] == analytic
        assert [c.name for c in run_verification(shots=200).checks] == analytic + table_names("sampled")
        assert (len(analytic), len(set(table_names(*verify._CHECKS)))) == (21, 26)

    def test_grids_make_no_per_point_reports(self, monkeypatch):
        reports = count_calls(monkeypatch, uncertainty.duality_report)
        scans = count_calls(monkeypatch, interferometer._scan_columns)
        assert run_verification().all_passed
        assert (len(reports), len(scans)) == (0, 6)

    def test_wave_operator_is_built_once_per_scan(self, monkeypatch):
        # the Pauli-form and periodicity checks compare stacks of W matrices
        waves = count_calls(monkeypatch, interferometer.wave_operator)
        assert run_verification().all_passed
        assert len(waves) == 6

    def test_sampled_rows_are_drawn_in_one_call(self, monkeypatch):
        # the eight (phi, phi0, order) rows between the two determinism runs
        calls = count_calls(monkeypatch, measurement.sequential_counts)
        runs = count_calls(monkeypatch, measurement.sequential_experiment)
        sampled_checks(shots=200, seed=4)
        assert [len(args[0]) for args in calls] == [10]
        assert runs == []

    def test_sampled_checks_solve_each_eigenbasis_once_per_call(self, monkeypatch):
        # the path basis once; the wave basis at the 4 offsets and the
        # determinism run's 0.1 under pw, and at the 4 offsets under wp
        solves = count_calls(monkeypatch, qalgebra.binary_eigensystem)
        sampled_checks(shots=200, seed=4)
        assert len(solves) == 10

    def test_makes_no_scalar_algebra_calls(self, monkeypatch):
        scalar = (
            qalgebra.expectation,
            qalgebra.variance,
            qalgebra.pauli_compose,
            uncertainty.robertson_bound,
        )
        calls = [count_calls(monkeypatch, fn) for fn in scalar]
        assert run_verification().all_passed
        assert [len(c) for c in calls] == [0, 0, 0, 0]

    def test_report_formatting(self):
        text = format_report(run_verification())
        assert "PASS" in text
        assert "FAIL" not in text
        assert "checks passed" in text

    def test_sampled_checks_appear_with_shots(self):
        report = run_verification(shots=20_000, seed=3)
        names = {c.name for c in report.checks}
        assert "second_outcome_uniform_pw" in names
        assert "second_outcome_uniform_wp" in names
        assert "sampling_determinism" in names
        assert report.all_passed

    def test_variance_detail_names_the_window_width(self, monkeypatch):
        monkeypatch.setattr(verify, "_WINDOW_SIGMAS", 3.0)
        details = {c.name: c.detail for c in sampled_checks(shots=200, seed=1)}
        for tag in ("pw", "wp"):
            assert "within 3 standard errors" in details[f"first_variance_convergence_{tag}"]


class TestFaultInjection:
    def test_perturbed_splitter_is_caught_by_name(self):
        report = run_verification(beam_splitter_override=perturbed_splitter())
        assert not report.all_passed
        # exactly the checks that read the splitter; the derivations still pass
        assert {c.name for c in report.failures} == {
            "beam_splitter_conjugation",
            "lower_port_splits_evenly",
            "pipeline_fringe_shape",
        }

    def test_non_complementary_basis_is_caught_by_name(self):
        # the path eigenbasis itself is the worst possible wave basis
        report = run_verification(wave_basis_override=path_eigenbasis())
        assert not report.all_passed
        # exactly the checks that read the wave basis under test; the
        # splitter and the closed-form derivation are untouched
        assert {c.name for c in report.failures} == {
            "path_blind_on_wave_eigenstates",
            "wave_blind_on_path_eigenstates",
            "path_wave_mutually_unbiased",
            "wave_operator_pauli_form",
        }

    def test_failure_lines_name_the_invariant(self):
        report = run_verification(beam_splitter_override=perturbed_splitter())
        text = format_report(report)
        assert any(
            line.startswith("FAIL") and "beam_splitter_conjugation" in line
            for line in text.splitlines()
        )


def nan_in_row_zero(column):
    # the last axis is the rows: the scan's moments hold W's and P's as two columns
    column = np.array(column)
    column[..., 0] = np.nan
    return column


#: A fault per component, as (target, its faulty version).  A function
#: target is patched wherever a twopath module binds it; a (module, name)
#: target only there.  CHECK_FAULTS says which checks each one fails.
COMPONENT_FAULTS = {
    "shifter-x1.01": (interferometer._shifter_matrices, lambda f: lambda phis: 1.01 * f(phis)),
    "wave-not-hermitian": (interferometer._wave_matrices,
                           lambda f: lambda phi0s: f(phi0s) + [[0.0, 0.1], [0.0, 0.0]]),
    # W read at phi0 / 2, so its period is 4 pi
    "wave-half-angle": (interferometer._wave_matrices, lambda f: lambda phi0s: f(np.asarray(phi0s) / 2)),
    # the constraint solve of derive_wave_eigenbasis, its one caller, gives
    # moduli^2 0.51 and 0.49: still normalized and orthogonal
    "derive-moduli": (complementarity._solve_2x2, lambda f: lambda a, b: f(a, b) + [0.01, -0.01]),
    # the shared set-up raises: each group that reads the offsets fails
    "derived-state-x1.01": ((complementarity, "StateVector"),
                            lambda cls: lambda amps: cls(1.01 * np.asarray(amps))),
    # and each group that reads the splitter
    "splitter-not-unitary": (interferometer.beam_splitter,
                             lambda f: lambda: qalgebra.UnitaryGate(1.01 * f().matrix)),
    "variance-nan": (qalgebra._moments, lambda f: lambda *a: (f(*a)[0], nan_in_row_zero(f(*a)[1]))),
    "commutator-nan": (qalgebra._bound, lambda f: lambda *a: nan_in_row_zero(f(*a))),
    "w-expect-nan": (interferometer._scan_columns,
                     lambda f: lambda *a: f(*a)._replace(w_expect=nan_in_row_zero(f(*a).w_expect))),
    # <a|M|a>, the mean that the moments formula gives with the variance
    "matrix-elements-nan": (qalgebra._moments, lambda f: lambda *a: (nan_in_row_zero(f(*a)[0]), f(*a)[1])),
}

#: The faults of TestSamplerFaults, by name.
SAMPLER_FAULTS = ("threshold-bias", "late-worker")

#: Each check of verify's table, in its order, with the pinned faults that
#: fail it: the component faults above and the sampler faults.
CHECK_FAULTS = {
    "beam_splitter_unitarity": {"splitter-not-unitary"},
    "beam_splitter_conjugation": {"splitter-not-unitary"},
    "lower_port_splits_evenly": {"splitter-not-unitary"},
    "path_blind_on_wave_eigenstates": {"derive-moduli", "derived-state-x1.01", "matrix-elements-nan"},
    "wave_blind_on_path_eigenstates": {"derive-moduli", "derived-state-x1.01", "matrix-elements-nan"},
    "path_wave_mutually_unbiased": {"derive-moduli", "derived-state-x1.01"},
    "wave_eigenbasis_closed_form": {"derive-moduli", "derived-state-x1.01"},
    "wave_operator_pauli_form": {"wave-not-hermitian", "wave-half-angle", "derive-moduli",
                                 "derived-state-x1.01"},
    "interference_cosine_law": {"wave-not-hermitian", "wave-half-angle", "w-expect-nan",
                                "matrix-elements-nan"},
    "balanced_states_hide_path": {"wave-not-hermitian", "matrix-elements-nan"},
    "path_spread_unity": {"wave-not-hermitian", "variance-nan"},
    "wave_spread_sine": {"wave-not-hermitian", "wave-half-angle", "variance-nan"},
    "uncertainty_product_saturation": {"wave-not-hermitian", "variance-nan", "commutator-nan"},
    "bound_vanishes_at_wave_eigenstates": {"wave-not-hermitian", "wave-half-angle"},
    "sensitivity_matches_wave_spread": {"wave-not-hermitian", "wave-half-angle", "variance-nan"},
    "sensitivity_finite_difference": {"wave-not-hermitian", "w-expect-nan", "matrix-elements-nan"},
    "pipeline_unit_visibility": {"shifter-x1.01", "splitter-not-unitary", "matrix-elements-nan"},
    "pipeline_fringe_shape": {"shifter-x1.01", "splitter-not-unitary", "matrix-elements-nan"},
    "wave_operator_periodicity": {"wave-half-angle", "derived-state-x1.01"},
    "variance_vanishes_on_eigenstates": {"derived-state-x1.01", "variance-nan"},
    "robertson_inequality": {"variance-nan", "commutator-nan"},
    "second_outcome_uniform_pw": {"threshold-bias"},
    "first_variance_convergence_pw": {"threshold-bias"},
    "second_outcome_uniform_wp": {"threshold-bias"},
    "first_variance_convergence_wp": {"threshold-bias"},
    "sampling_determinism": {"late-worker"},
}


def failed_by(fault):
    """The checks CHECK_FAULTS says the fault fails."""
    return {check for check, faults in CHECK_FAULTS.items() if fault in faults}


def install_fault(monkeypatch, name):
    target, fault = COMPONENT_FAULTS[name]
    if isinstance(target, tuple):
        module, attr = target
        monkeypatch.setattr(module, attr, fault(getattr(module, attr)))
    else:
        patch_everywhere(monkeypatch, target, fault(target))


class TestComponentFaults:
    """A broken component fails its checks by name, with exit 1; a group
    that raises, or whose shared set-up raises, fails each of its checks,
    and a NaN residual fails too."""

    @pytest.mark.parametrize("name", COMPONENT_FAULTS)
    def test_fault_fails_its_checks_by_name(self, name, capsys, monkeypatch):
        install_fault(monkeypatch, name)
        assert main(["verify"]) == 1
        out, err = capsys.readouterr()
        failing = failed_by(name)
        assert err == ""
        assert {line.split()[1] for line in out.splitlines() if line.startswith("FAIL")} == failing
        assert out.splitlines()[-1] == f"{21 - len(failing)}/21 checks passed"

    def test_the_faults_together_fail_every_analytic_check(self):
        analytic = table_names(*(group for group in verify._CHECKS if group != "sampled"))
        uncovered = [check for check in analytic if not CHECK_FAULTS[check] & COMPONENT_FAULTS.keys()]
        assert uncovered == []

    def test_every_check_has_a_pinned_fault(self):
        # keyed by check, so a fault taken out of the tables names the
        # checks it leaves uncovered
        assert list(CHECK_FAULTS) == table_names(*verify._CHECKS)
        pinned = {*COMPONENT_FAULTS, *SAMPLER_FAULTS}
        uncovered = [check for check, faults in CHECK_FAULTS.items() if not faults & pinned]
        assert uncovered == []
        assert set().union(*CHECK_FAULTS.values()) == pinned

    def test_raising_group_names_the_exception(self, monkeypatch):
        install_fault(monkeypatch, "shifter-x1.01")
        failed = run_verification().failures
        assert [c.residual for c in failed] == [float("inf")] * 2
        assert all("group raised InvariantViolation: state 0 is not normalized" in c.detail for c in failed)

    def test_raising_setup_names_the_exception(self, monkeypatch):
        install_fault(monkeypatch, "splitter-not-unitary")
        failed = run_verification().failures
        assert [c.residual for c in failed] == [float("inf")] * 5
        assert all("setup raised InvariantViolation: gate is not unitary" in c.detail for c in failed)

    @pytest.mark.parametrize("exc", [MemoryError, KeyboardInterrupt, SystemExit])
    def test_only_invariant_violations_become_fail_lines(self, monkeypatch, exc):
        def broken(*args):
            raise exc
            yield

        monkeypatch.setattr(verify, "_pipeline_residuals", broken)
        with pytest.raises(exc):
            run_verification()

    @pytest.mark.parametrize("exc", [MemoryError, KeyboardInterrupt])
    def test_only_invariant_violations_in_setup_become_fail_lines(self, monkeypatch, exc):
        def broken(override):
            raise exc

        monkeypatch.setattr(verify, "_wave_bases", broken)
        with pytest.raises(exc):
            run_verification()


class TestSamplerFaults:
    """Sampler faults against the named Monte Carlo checks."""

    def test_threshold_bias_fails_the_sampled_checks_by_name(self, monkeypatch):
        # every Born odds of every row raised by 0.005: 30 of seeds 1-30 fail each check
        thresholds = measurement.draw_thresholds
        monkeypatch.setattr(measurement, "draw_thresholds",
                            lambda p: thresholds(np.minimum(p + 0.005, 1.0)))
        checks = sampled_checks(200_000, 1)
        assert [c.name for c in checks] == table_names("sampled")
        assert {c.name for c in checks if not c.passed} == failed_by("threshold-bias")

    def test_late_worker_fails_determinism_by_name(self, monkeypatch):
        # the parts on worker threads draw from 1000 shots past their rows'
        # start; the check rows stay i.i.d. uniform, but the two determinism
        # runs, first and last of the call, are drawn by different parts
        force_parts(monkeypatch, 2)
        grid = measurement.uniform_grid

        def late(seeds, counter, *args):
            if threading.current_thread() is not threading.main_thread():
                counter += 2000
            return grid(seeds, counter, *args)

        monkeypatch.setattr(measurement, "uniform_grid", late)
        failed = {c.name for c in sampled_checks(200_000, 1) if not c.passed}
        assert failed == failed_by("late-worker")

    @pytest.mark.parametrize("fault", ["swapped_lanes", "one_seed"])
    def test_blind_spots_move_the_golden_digest(self, monkeypatch, capsys, fault):
        # each row's draws stay i.i.d. uniform, so every named check still
        # passes; only the pinned report bytes show the fault
        if fault == "swapped_lanes":
            monkeypatch.setattr(measurement, "uniform_grid", swapped_lanes)
        else:
            monkeypatch.setattr(verify, "child_seeds",
                                lambda seed, rows: np.full_like(rows, rng.child_seeds(seed, 0)))
        argv = ["verify", "--shots", "200000", "--seed", "1"]
        assert main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest != dict((tuple(a), d) for a, d in GOLDEN)[tuple(argv)]


def binomial_interval(n, p, level=0.999):
    """The central interval [lo, hi] of Binomial(n, p): at most (1 - level) / 2
    of its mass lies below lo, and at most that above hi."""
    tail = (1 - level) / 2
    cdf = list(itertools.accumulate(math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)))
    return (next(k for k, c in enumerate(cdf) if c > tail),
            next(k for k, c in enumerate(cdf) if c >= 1 - tail))


class TestFalseAlarms:
    """The sampled checks' false-alarm rates, as data: over seeds 1-300 at
    200000 shots each check's count of failures lies inside the 99.9%
    binomial interval of its nominal rate."""

    def test_alarm_counts_fit_the_nominal_rates(self):
        seeds = range(1, 301)
        alarms = Counter(c.name for seed in seeds for c in sampled_checks(200_000, seed) if not c.passed)
        # the worst of four independent rows, each at 1%, or at P(|Z| > 4)
        chi2 = 1 - 0.99**4
        variance = 4 * math.erfc(4 / math.sqrt(2))
        nominal = dict(zip(table_names("sampled"), [chi2, variance, chi2, variance, 0.0]))
        counts = {name: alarms[name] for name in nominal}
        intervals = {name: binomial_interval(len(seeds), p) for name, p in nominal.items()}
        assert all(lo <= counts[name] <= hi for name, (lo, hi) in intervals.items()), (counts, intervals)
        assert set(alarms) <= set(nominal)


class TestReportBytes:
    """The whole report, residuals included, under each injected fault."""

    @pytest.mark.parametrize("overrides, digest", [
        ({}, "9c3b9c9109f6948e92842fb31dd5528edbce9590685f2703d119ff33f4ebd999"),
        ({"beam_splitter_override": perturbed_splitter()},
         "d1d6398d2b5e56048b7b7aa697e19a85dbfb1266db1efb098760f8bbb1a17486"),
        ({"wave_basis_override": path_eigenbasis()},
         "cf40f715b7f6946eb00d2fa465b45524eb332c076492e9722975cbd5fa25b775"),
        ({"beam_splitter_override": perturbed_splitter(0.3), "wave_basis_override": path_eigenbasis()},
         "17623121e07a10eee7ce4fec5952f562d06fda93f1590ddda358d1f9b256d315"),
    ], ids=["healthy", "splitter", "wave-basis", "both"])
    def test_report_digest(self, overrides, digest):
        text = format_report(run_verification(**overrides))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


class TestNamedLimits:
    def test_no_check_limit_is_a_numeric_literal(self):
        tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
        (table,) = [node.value for node in tree.body
                    if isinstance(node, ast.AnnAssign) and node.target.id == "_CHECKS"]
        limits = [row.elts[1] for group in table.values for row in group.elts]
        assert len(limits) == len(table_names(*verify._CHECKS)) == 26
        for limit in limits:
            if isinstance(limit, ast.UnaryOp):
                limit = limit.operand
            assert not (
                isinstance(limit, ast.Constant) and isinstance(limit.value, (int, float))
            ), f"line {limit.lineno}: check limit {ast.unparse(limit)} is a literal"
