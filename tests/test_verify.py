"""The named check suite: green by default, red under injected faults."""

import ast
from pathlib import Path

from support import count_calls, perturbed_splitter
from twopath import uncertainty, verify
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
        tables = count_calls(monkeypatch, uncertainty.duality_table)
        assert run_verification().all_passed
        assert (len(reports), len(tables)) == (0, 5)

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
