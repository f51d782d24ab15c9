"""Command-line contract: schemas, determinism, exit codes."""

import ast
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from support import count_calls
import twopath
from twopath import cli, interferometer, measurement, qalgebra, rng, uncertainty
from twopath.cli import RunConfig, cmd_sample, cmd_scan, main
from twopath.interferometer import balanced_state, wave_operator
from twopath.measurement import uniformity_test
from twopath.qalgebra import InvariantViolation, StateVector, expectation
from twopath.rng import RandomStream
from twopath.verify import variance_window

PI = str(math.pi)


def parse_csv(text: str):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestScan:
    def test_header_is_the_documented_schema(self, capsys):
        assert main(["scan", "--steps", "3"]) == 0
        header, _ = parse_csv(capsys.readouterr().out)
        assert header == [
            "phi", "w_expectation", "p_expectation",
            "delta_p", "delta_w", "robertson_bound", "gap",
        ]

    def test_cardinal_values(self, capsys):
        assert main(["scan", "--phi0", "0", "--from", "0", "--to", PI, "--steps", "3"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        w = [float(r[1]) for r in rows]
        np.testing.assert_allclose(w, [1.0, 0.0, -1.0], atol=1e-12)

    def test_delta_p_column_is_unity(self, capsys):
        assert main(["scan", "--from", "0", "--to", PI, "--steps", "7"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert all(abs(float(r[3]) - 1.0) < 1e-12 for r in rows)

    def test_gap_column_vanishes(self, capsys):
        assert main(["scan", "--steps", "25"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert all(abs(float(r[6])) < 1e-10 for r in rows)

    def test_values_round_trip_exactly(self, capsys):
        # 17-significant-digit formatting: parsing recovers the double
        phi = math.pi / 3
        assert main(["scan", "--from", str(phi), "--to", str(phi), "--steps", "1"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        want = expectation(wave_operator(0.0), balanced_state(phi))
        assert float(rows[0][1]) == want

    def test_degrees_flag(self, capsys):
        assert main(["scan", "--phi0", "90", "--degrees", "--from", "90", "--to", "90", "--steps", "1"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert abs(float(rows[0][1]) - 1.0) < 1e-12

    def test_degrees_defaults_cover_the_full_turn(self, capsys):
        assert main(["scan", "--degrees", "--steps", "3"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        phis = [float(r[0]) for r in rows]
        np.testing.assert_allclose(phis, [-math.pi, 0.0, math.pi], atol=1e-12)

    def test_state_count_does_not_grow_with_steps(self, monkeypatch):
        built = []
        validate = StateVector.__post_init__

        def counted(state):
            built.append(state)
            validate(state)

        monkeypatch.setattr(StateVector, "__post_init__", counted)
        counts = []
        for steps in (10, 1000):
            built.clear()
            cmd_scan(RunConfig(phi0=0.6, steps=steps))
            counts.append(len(built))
        assert counts[0] == counts[1]

    def test_grid_states_are_built_once(self, monkeypatch):
        calls = count_calls(monkeypatch, interferometer._balanced_rows)
        cmd_scan(RunConfig(phi0=0.6, steps=361))
        assert [len(args[0]) for args in calls] == [361]

    def test_makes_no_scalar_algebra_calls(self, monkeypatch):
        scalar = (
            qalgebra.expectation,
            qalgebra.variance,
            interferometer.balanced_state,
            uncertainty.duality_report,
        )
        calls = [count_calls(monkeypatch, fn) for fn in scalar]
        cmd_scan(RunConfig(phi0=0.6, phi_start=-3.14159, phi_end=3.14159, steps=20001))
        assert [len(c) for c in calls] == [0, 0, 0, 0]


class TestSample:
    def test_header_schema(self, capsys):
        assert main(["sample", "--steps", "1", "--shots", "100", "--seed", "5"]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == [
            "phi", "phi0", "order", "shots", "first_mean", "first_variance",
            "second_mean", "second_variance", "n_plus", "n_minus", "chi2", "chi2_pass",
        ]
        assert {r[2] for r in rows} == {"pw", "wp"}

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["sample", "--steps", "2", "--shots", "2000", "--seed", "99"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "a.csv"
        assert main(["sample", "--steps", "1", "--shots", "100", "--out", str(out)]) == 0
        content = out.read_bytes()
        assert b"\r" not in content
        assert content.endswith(b"\n")

    def test_chi2_recomputes_from_counts(self, capsys):
        assert main(["sample", "--steps", "3", "--shots", "5000", "--seed", "2"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        for row in rows:
            counts = (int(row[8]), int(row[9]))
            chi2, ok = uniformity_test(counts)
            assert float(row[10]) == chi2
            assert row[11] == ("1" if ok else "0")

    def test_order_filter(self, capsys):
        assert main(["sample", "--steps", "2", "--shots", "100", "--order", "wp"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert {r[2] for r in rows} == {"wp"}
        assert len(rows) == 2

    def test_eigensystems_are_solved_once_per_order_and_offset(self, monkeypatch):
        solves = count_calls(monkeypatch, qalgebra.binary_eigensystem)
        counts = []
        # a fresh offset per run, so no earlier run has solved its observables
        for steps, phi0 in ((3, 0.3141), (9, 0.2718)):
            solves.clear()
            cmd_sample(RunConfig(phi0=phi0, steps=steps, shots=10, order="both"))
            counts.append(len(solves))
        # the path basis once, and the wave basis once per order
        assert counts == [3, 3]

    def test_grid_is_sampled_in_one_pass(self, monkeypatch):
        amplitudes = count_calls(monkeypatch, interferometer.balanced_amplitudes)
        states = count_calls(monkeypatch, interferometer.balanced_state)
        derived = []
        derive = RandomStream.derive
        monkeypatch.setattr(
            RandomStream, "derive", lambda self, i: derived.append(i) or derive(self, i)
        )
        blocks = []
        grid = rng.uniform_grid

        def recorded(*args):
            for lo, hi, draws in grid(*args):
                blocks.append(draws)
                yield lo, hi, draws

        monkeypatch.setattr(measurement, "uniform_grid", recorded)
        cmd_sample(RunConfig(phi0=0.6, steps=2001, shots=1000, order="both"))
        assert [len(args[0]) for args in amplitudes] == [4002]
        assert (states, derived) == ([], [])
        # 4002 rows of 2000 draws, 32 rows to a block
        assert len(blocks) == 126
        assert all(np.shares_memory(draws, blocks[0]) for draws in blocks)

    def test_peak_memory_is_flat_in_shots(self, capsys):
        def peak_bytes(shots):
            tracemalloc.start()
            try:
                assert main(["sample", "--steps", "1", "--shots", str(shots), "--order", "pw"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                capsys.readouterr()

        small, large = peak_bytes(200_000), peak_bytes(4_000_000)
        assert large < 16 * 2**20
        assert large < 2 * small

    def test_seed_accepts_large_u64(self, capsys):
        assert main(["sample", "--steps", "1", "--shots", "100", "--seed", str((1 << 64) - 1)]) == 0

    def test_million_shot_variance_at_quadrature(self):
        # W first at phi = pi/2: the first-measurement variance estimates 1
        config = RunConfig(
            phi0=0.0, phi_start=math.pi / 2, phi_end=math.pi / 2,
            steps=1, shots=1_000_000, seed=1, order="wp",
        )
        _, rows = parse_csv(cmd_sample(config))
        first_variance = float(rows[0][5])
        assert abs(first_variance - 1.0) <= variance_window(0.0, 1_000_000)


class TestVerifyCommand:
    def test_passes_and_exits_zero(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_with_shots(self, capsys):
        assert main(["verify", "--shots", "20000", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "second_outcome_uniform_pw" in out

    def test_failing_suite_exits_one_and_names_the_check(self, capsys, monkeypatch):
        import twopath.cli as cli_module
        from twopath.verify import run_verification
        from support import perturbed_splitter

        def crooked_run(shots=None, seed=1):
            return run_verification(
                shots=shots, seed=seed,
                beam_splitter_override=perturbed_splitter(),
            )

        monkeypatch.setattr(cli_module, "run_verification", crooked_run)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert any(
            line.startswith("FAIL") and "beam_splitter_conjugation" in line
            for line in out.splitlines()
        )


class TestExitCodes:
    def test_usage_error_unknown_flag(self, capsys):
        assert main(["scan", "--bogus"]) == 2

    def test_usage_error_no_command(self, capsys):
        assert main([]) == 2

    def test_usage_error_bad_steps(self, capsys):
        assert main(["scan", "--steps", "0"]) == 2
        assert "steps" in capsys.readouterr().err

    def test_usage_error_inverted_range(self, capsys):
        assert main(["scan", "--from", "2", "--to", "1"]) == 2

    def test_usage_error_removed_workers_flag(self, capsys):
        assert main(["sample", "--steps", "1", "--shots", "100", "--workers", "2"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_usage_error_verify_seed_out_of_range(self, capsys):
        # rejected whether or not a Monte Carlo check would use the seed
        sample = ["sample", "--steps", "1", "--shots", "10"]
        for argv in (["verify"], ["verify", "--shots", "100"], sample):
            for seed in (-5, 1 << 64):
                assert main(argv + ["--seed", str(seed)]) == 2
                assert capsys.readouterr().err == (
                    f"twopath: seed must be an unsigned 64-bit integer, got {seed}\n"
                )

    @pytest.mark.parametrize(
        "flag, value, name",
        [("--phi0", "nan", "phi0"), ("--from", "nan", "phi_start"), ("--to", "inf", "phi_end"),
         ("--from", "inf", "phi_start"), ("--to", "-inf", "phi_end")],
    )
    def test_usage_error_names_the_non_finite_angle(self, flag, value, name, capsys):
        # named before the range is compared, so an infinite end is not "inverted"
        assert main(["scan", f"{flag}={value}"]) == 2
        assert capsys.readouterr().err == f"twopath: {name} must be a finite angle, got {value}\n"

    def test_out_of_memory_is_a_usage_error(self, capsys, monkeypatch):
        def exhausted(config):
            raise MemoryError("Unable to allocate 2.98 GiB")

        for command in ("scan", "sample"):
            monkeypatch.setattr(cli, f"cmd_{command}", exhausted)
            assert main([command, "--steps", "3"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("twopath: ") and "2.98 GiB" in err

    def test_usage_error_steps_beyond_the_largest_grid(self, capsys):
        # 2**60 float64 entries overflow numpy's byte count; 2**63 its index
        for command in ("scan", "sample"):
            for steps in (2**60, 2**63):
                assert main([command, "--steps", str(steps)]) == 2
                err = capsys.readouterr().err
                assert err.startswith("twopath: steps") and err.count("\n") == 1

    def test_usage_error_range_wider_than_a_double(self):
        # finite ends whose difference overflows; run as a process so that
        # any warning numpy prints would show on stderr
        src = Path(twopath.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        for command in ("scan", "sample"):
            argv = [sys.executable, "-m", "twopath.cli", command,
                    "--steps", "3", "--from=-1e308", "--to", "1.7e308"]
            run = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
            assert run.returncode == 2
            assert run.stderr == (
                "twopath: phi range -1e+308 to 1.7e+308 is wider than a double can hold\n"
            )

    def test_io_error_unwritable_path(self, capsys):
        assert main(["scan", "--steps", "2", "--out", "/no/such/dir/x.csv"]) == 3
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["verify"], ["scan", "--steps", "3"], ["sample", "--steps", "1", "--shots", "10"]],
        ids=["verify", "scan", "sample"],
    )
    def test_io_error_unwritable_stdout(self, argv, capsys, monkeypatch):
        # a full disk is an I/O error, never a failed verification
        class FullDisk:
            def write(self, text):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(sys, "stdout", FullDisk())
        assert main(argv) == 3
        assert "cannot write output" in capsys.readouterr().err

    def test_gnuplot_requires_out(self, capsys):
        assert main(["scan", "--gnuplot"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestOneWriter:
    def test_only_emit_opens_or_writes_output(self):
        # every output byte leaves through _emit; the one other write is
        # main's error message on stderr
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        emit = next(n for n in tree.body if getattr(n, "name", None) == "_emit")
        in_emit = {id(n) for n in ast.walk(emit)}
        inside, outside = [], []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) in ("open", "print")
                or getattr(node.func, "attr", None) == "write"
            ):
                (inside if id(node) in in_emit else outside).append(ast.unparse(node.func))
        assert sorted(inside) == ["fh.write", "open", "sys.stdout.write"]
        assert outside == ["sys.stderr.write"]


class TestGnuplot:
    def test_script_written_next_to_csv(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--steps", "5", "--out", str(out), "--gnuplot"]) == 0
        script = tmp_path / "scan.csv.gp"
        assert script.exists()
        assert str(out) in script.read_text()

    @pytest.mark.parametrize("argv, plot", [
        (["scan", "--steps", "5"], "using 1:2 with lines, '' using 1:6 with lines"),
        (["sample", "--steps", "2", "--shots", "10"], "using 1:6 with points"),
    ], ids=["scan", "sample"])
    def test_script_bytes(self, tmp_path, argv, plot):
        out = tmp_path / "run.csv"
        assert main(argv + ["--out", str(out), "--gnuplot"]) == 0
        assert (tmp_path / "run.csv.gp").read_bytes() == (
            "set datafile separator ','\n"
            "set key autotitle columnhead\n"
            "set xlabel 'phi (rad)'\n"
            f"plot '{out}' {plot}\n"
        ).encode("utf-8")


class TestRunConfig:
    def test_grid_is_inclusive_linspace(self):
        config = RunConfig(phi_start=0.0, phi_end=math.pi, steps=3)
        np.testing.assert_allclose(config.grid(), [0.0, math.pi / 2, math.pi])

    def test_validation(self):
        with pytest.raises(InvariantViolation):
            RunConfig(steps=0)
        with pytest.raises(InvariantViolation):
            RunConfig(phi_start=1.0, phi_end=0.0)
        with pytest.raises(InvariantViolation):
            RunConfig(seed=-1)
        with pytest.raises(InvariantViolation):
            RunConfig(order="sideways")

    def test_cmd_scan_accepts_config_directly(self):
        text = cmd_scan(RunConfig(phi0=0.0, phi_start=0.0, phi_end=0.0, steps=1))
        header, rows = parse_csv(text)
        assert len(rows) == 1
        assert abs(float(rows[0][1]) - 1.0) < 1e-12

    def test_cmd_sample_accepts_config_directly(self):
        text = cmd_sample(
            RunConfig(phi_start=0.5, phi_end=0.5, steps=1, shots=500, seed=1, order="pw")
        )
        _, rows = parse_csv(text)
        assert len(rows) == 1
        assert int(rows[0][3]) == 500
