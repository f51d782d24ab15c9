"""The named check suite: green by default, red under injected faults."""

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

from support import count_calls, perturbed_splitter, swapped_lanes
from test_golden import GOLDEN
from twopath import complementarity, interferometer, measurement, qalgebra, rng, uncertainty, verify
from twopath.cli import main
from twopath.complementarity import path_eigenbasis
from twopath.verify import format_report, run_verification


class TestHealthySuite:
    def test_all_checks_pass(self):
        report = run_verification()
        assert report.all_passed
        assert report.failures == ()

    def test_expected_checks_present(self):
        names = {c.name for c in run_verification().checks}
        expected = {
            "beam_splitter_conjugation",
            "path_blind_on_wave_eigenstates",
            "wave_blind_on_path_eigenstates",
            "path_wave_mutually_unbiased",
            "wave_eigenbasis_closed_form",
            "wave_operator_pauli_form",
            "interference_cosine_law",
            "uncertainty_product_saturation",
            "bound_vanishes_at_wave_eigenstates",
            "pipeline_unit_visibility",
            "robertson_inequality",
        }
        assert expected <= names

    def test_grids_make_no_per_point_reports(self, monkeypatch):
        reports = count_calls(monkeypatch, uncertainty.duality_report)
        scans = count_calls(monkeypatch, interferometer.interference_scan)
        assert run_verification().all_passed
        assert (len(reports), len(scans)) == (0, 6)

    def test_wave_operator_is_built_once_per_scan(self, monkeypatch):
        # the Pauli-form and periodicity checks compare stacks of W matrices
        waves = count_calls(monkeypatch, interferometer.wave_operator)
        assert run_verification().all_passed
        assert len(waves) == 6

    def test_sampled_rows_are_drawn_in_one_call(self, monkeypatch):
        # the eight (phi, phi0, order) rows, then the two determinism runs
        calls = count_calls(monkeypatch, measurement.sequential_counts)
        derived = []
        derive = verify.RandomStream.derive
        monkeypatch.setattr(
            verify.RandomStream, "derive", lambda self, i: derived.append(i) or derive(self, i)
        )
        verify._sampled_checks(shots=200, seed=4)
        assert [len(args[0]) for args in calls] == [8, 1, 1]
        assert derived == []

    def test_sampled_checks_solve_each_eigenbasis_once_per_call(self, monkeypatch):
        # the eight-row call: the path basis and 4 offsets x 2 orders; then
        # each determinism run: the path basis and its one wave basis
        solves = count_calls(monkeypatch, qalgebra.binary_eigensystem)
        verify._sampled_checks(shots=200, seed=4)
        assert len(solves) == 13

    def test_makes_no_scalar_algebra_calls(self, monkeypatch):
        scalar = (
            qalgebra.expectation,
            qalgebra.variance,
            qalgebra.apply,
            qalgebra.pauli_compose,
            uncertainty.robertson_bound,
            complementarity.check_mutual_zero_expectation,
        )
        calls = [count_calls(monkeypatch, fn) for fn in scalar]
        assert run_verification().all_passed
        assert [len(c) for c in calls] == [0, 0, 0, 0, 0, 0]

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
        details = {c.name: c.detail for c in verify._sampled_checks(shots=200, seed=1)}
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


class TestSamplerFaults:
    """Sampler faults against the named Monte Carlo checks."""

    SAMPLED = ("second_outcome_uniform_pw", "first_variance_convergence_pw",
               "second_outcome_uniform_wp", "first_variance_convergence_wp")

    def test_threshold_bias_fails_the_sampled_checks_by_name(self, monkeypatch):
        # every Born odds of every row raised by 0.005: 30 of seeds 1-30 fail each check
        thresholds = measurement.draw_thresholds
        monkeypatch.setattr(measurement, "draw_thresholds",
                            lambda p: thresholds(np.minimum(p + 0.005, 1.0)))
        passed = {c.name: c.passed for c in verify._sampled_checks(200_000, 1)}
        assert passed == {**dict.fromkeys(self.SAMPLED, False), "sampling_determinism": True}

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


class TestReportBytes:
    """The whole report, residuals included, under each injected fault."""

    @pytest.mark.parametrize("overrides, digest", [
        ({}, "4adf6594a7fee8d0b33219c12539d06f4393e68dfba38467d53470a5f7f46619"),
        ({"beam_splitter_override": perturbed_splitter()},
         "38a110dfdf83af1552995aa8c7eaecc9eb73a1a448055b0603e853b9c4e663e4"),
        ({"wave_basis_override": path_eigenbasis()},
         "badd724af6164fb51aab9d13d9fae4e477b9962bb53a8dbe5a80a282ee217a82"),
        ({"beam_splitter_override": perturbed_splitter(0.3), "wave_basis_override": path_eigenbasis()},
         "208aac60fbc6b90526d1cfe8554203d37d716d6de3afa1faf56a83ab976b4731"),
    ], ids=["healthy", "splitter", "wave-basis", "both"])
    def test_report_digest(self, overrides, digest):
        text = format_report(run_verification(**overrides))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


class TestNamedLimits:
    def test_no_check_limit_is_a_numeric_literal(self):
        tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
        limits = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_check":
                keywords = {k.arg: k.value for k in node.keywords}
                limits.append(node.args[2] if len(node.args) > 2 else keywords["limit"])
        assert len(limits) >= 20
        for limit in limits:
            if isinstance(limit, ast.UnaryOp):
                limit = limit.operand
            assert not (
                isinstance(limit, ast.Constant) and isinstance(limit.value, (int, float))
            ), f"line {limit.lineno}: _check limit {ast.unparse(limit)} is a literal"
