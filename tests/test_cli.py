"""Command-line contract: schemas, determinism, exit codes."""

import ast
import contextlib
import hashlib
import io
import math
import os
import random
import re
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from support import count_calls, force_parts, grid_failing, patch_everywhere, sample_lines
import twopath
from twopath import cli, interferometer, measurement, output, qalgebra, rng, uncertainty
from twopath.cli import RunConfig, cmd_sample, cmd_scan, main
from twopath.interferometer import balanced_state, wave_operator
from twopath.measurement import CHUNK_SHOTS, uniformity_test
from twopath.qalgebra import InvariantViolation, StateVector, expectation
from twopath.rng import child_seeds
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
        validate = StateVector.__init__

        def counted(state, amplitudes):
            built.append(state)
            validate(state, amplitudes)

        monkeypatch.setattr(StateVector, "__init__", counted)
        counts = []
        for steps in (10, 1000):
            built.clear()
            "".join(cmd_scan(RunConfig(phi0=0.6, steps=steps)))
            counts.append(len(built))
        assert counts[0] == counts[1]

    def test_grid_states_are_built_once(self, monkeypatch):
        calls = count_calls(monkeypatch, interferometer._balanced_rows)
        "".join(cmd_scan(RunConfig(phi0=0.6, steps=361)))
        assert [len(args[0]) for args in calls] == [361]

    def test_makes_no_scalar_algebra_calls(self, monkeypatch):
        scalar = (
            qalgebra.expectation,
            qalgebra.variance,
            interferometer.balanced_state,
            uncertainty.duality_report,
        )
        calls = [count_calls(monkeypatch, fn) for fn in scalar]
        "".join(cmd_scan(RunConfig(phi0=0.6, phi_start=-3.14159, phi_end=3.14159, steps=20001)))
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
            "".join(cmd_sample(RunConfig(phi0=phi0, steps=steps, shots=10, order="both")))
            counts.append(len(solves))
        # the path basis once, and the wave basis once per order
        assert counts == [3, 3]

    def test_grid_is_sampled_in_one_pass(self, monkeypatch):
        amplitudes = count_calls(monkeypatch, interferometer.balanced_amplitudes)
        states = count_calls(monkeypatch, interferometer.balanced_state)
        force_parts(monkeypatch, 2)
        calls = []
        grid = rng.uniform_grid

        def recorded(seeds, counter, n, size, lanes):
            blocks, shots = [], np.zeros(len(seeds), dtype=np.int64)
            calls.append((seeds, blocks, shots))
            for lo, hi, draws in grid(seeds, counter, n, size, lanes):
                blocks.append(draws)
                shots[lo:hi] += draws.shape[2]
                yield lo, hi, draws

        monkeypatch.setattr(measurement, "uniform_grid", recorded)
        config = RunConfig(phi0=0.6, steps=2001, shots=1000, order="both")
        "".join(cmd_sample(config))
        assert [len(args[0]) for args in amplitudes] == [4002]
        assert states == []
        # one grid kernel call per part; each draws every block in place,
        # as many whole rows to a block as fit, CHUNK_SHOTS // 1000 of 1000 shots
        assert len(calls) == 2
        for seeds, blocks, shots in calls:
            assert len(blocks) == -(-len(seeds) // (CHUNK_SHOTS // 1000))
            assert all(np.shares_memory(draws, blocks[0]) for draws in blocks)
            assert (shots == 1000).all()
        # and the parts cover the 4002 rows once
        drawn = np.sort(np.concatenate([seeds for seeds, _, _ in calls]))
        rows = np.arange(4002, dtype=np.uint64)
        np.testing.assert_array_equal(drawn, np.sort(child_seeds(config.seed, rows)))

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
        _, rows = parse_csv("".join(cmd_sample(config)))
        first_variance = float(rows[0][5])
        assert abs(first_variance - 1.0) <= variance_window(0.0, 1_000_000)


class TestSampleRows:
    """sample's rows against ``SAMPLE_ROW % row`` (the oracle in support)
    and the scalar statistics, on crafted counts in place of the sampler's."""

    @staticmethod
    def crafted(monkeypatch, counts):
        """Make measurement.sequential_counts, the sampler cmd_sample calls,
        return counts(rows, shots); returns the list of each call's rows,
        shots and counts."""
        calls = []

        def fake(orders, phis, phi0s, shots, seeds):
            n_first, n_second = counts(len(phis), shots)
            calls.append((orders, phis, phi0s, shots, n_first, n_second))
            return n_first, n_second

        monkeypatch.setattr(measurement, "sequential_counts", fake)
        return calls

    def assert_rows_match(self, monkeypatch, config, counts):
        calls = self.crafted(monkeypatch, counts)
        text = "".join(cmd_sample(config))
        header = ",".join(cli.SAMPLE_COLUMNS) + "\n"
        assert text == header + "".join(sample_lines(*call) for call in calls)

    @pytest.mark.parametrize("order", ["both", "wp"])
    @pytest.mark.parametrize("shots", [1, 2, 1000, 94_906_265, 94_906_266, 94_906_267, 2**53])
    def test_rows_around_the_exactness_bound(self, shots, order, monkeypatch):
        assert 94_906_265**2 < 2**53 < 94_906_266**2
        assert measurement.EXACT_SHOTS == 94_906_265

        def counts(rows, shots):
            draw = random.Random(shots)
            n = [0, shots, shots // 2] + [draw.randrange(shots + 1) for _ in range(rows - 3)]
            return np.array(n, dtype=np.int64), np.array(n[::-1], dtype=np.int64)

        self.assert_rows_match(monkeypatch, RunConfig(phi0=0.6, steps=5, shots=shots, order=order), counts)

    @pytest.mark.parametrize("shots", [2**53 + 1, 2**64])
    def test_sample_rejects_shots_above_2_53(self, shots, capsys, monkeypatch):
        # the float64 block holds shots and counts exactly only up to 2^53
        def refused(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(measurement, "sequential_counts", refused)
        assert main(["sample", "--steps", "1", "--shots", str(shots)]) == 2
        assert capsys.readouterr() == ("", f"twopath: shots must be <= 9007199254740992 (2**53), got {shots}\n")

    @settings(max_examples=150)
    @given(st.integers(1, 94_906_265).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), min_size=1, max_size=4))))
    @example((94_906_265, [(94_906_265, 0), (47_453_132, 47_453_133)]))
    def test_rows_below_the_bound(self, case):
        shots, pairs = case

        def counts(rows, shots):
            both_orders = pairs * 2
            return tuple(np.array(column, dtype=np.int64) for column in zip(*both_orders))

        with pytest.MonkeyPatch.context() as monkeypatch:
            config = RunConfig(phi0=-1.1, phi_start=-2.0, phi_end=3.0, steps=len(pairs), shots=shots)
            self.assert_rows_match(monkeypatch, config, counts)


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
        import twopath.verify as verify_module
        from twopath.verify import run_verification
        from support import perturbed_splitter

        def crooked_run(shots=None, seed=1):
            return run_verification(
                shots=shots, seed=seed,
                beam_splitter_override=perturbed_splitter(),
            )

        monkeypatch.setattr(verify_module, "run_verification", crooked_run)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert any(
            line.startswith("FAIL") and "beam_splitter_conjugation" in line
            for line in out.splitlines()
        )


    def test_broken_bound_is_a_failed_check_not_a_usage_error(self, capsys, monkeypatch):
        # a Robertson bound 10% too large puts the product below it, which
        # the two Robertson checks report by name
        bound = qalgebra._bound
        patch_everywhere(monkeypatch, bound, lambda *args: 1.1 * bound(*args))
        assert main(["verify"]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        failed = {line.split()[1] for line in out.splitlines() if line.startswith("FAIL")}
        assert failed == {"uncertainty_product_saturation", "robertson_inequality"}
        assert out.splitlines()[-1] == "19/21 checks passed"


class TestExitCodes:
    def test_usage_error_unknown_flag(self, capsys):
        assert main(["scan", "--bogus"]) == 2

    def test_usage_error_no_command(self, capsys):
        assert main([]) == 2

    def test_usage_error_bad_steps(self, capsys):
        assert main(["scan", "--steps", "0"]) == 2
        assert "steps" in capsys.readouterr().err

    @pytest.mark.parametrize("shots", ["0", "-3"])
    def test_usage_error_verify_shots_below_one(self, shots, capsys):
        # rejected before any check group runs, so it is not a FAIL report
        assert main(["verify", "--shots", shots]) == 2
        assert capsys.readouterr() == ("", f"twopath: shots must be >= 1, got {shots}\n")

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

    def test_out_of_memory_in_a_sampler_worker_is_a_usage_error(self, capsys, monkeypatch, tmp_path):
        # 6 rows in 2 parts of 3: the second part runs on a thread of its own
        force_parts(monkeypatch, 2)
        second_part = child_seeds(1, 3)
        grid, _ = grid_failing(second_part, MemoryError("Unable to allocate 2.98 GiB"), after=1)
        monkeypatch.setattr(measurement, "uniform_grid", grid)
        threads = threading.active_count()
        out = tmp_path / "x.csv"
        argv = ["sample", "--steps", "3", "--shots", "40000", "--seed", "1", "--out", str(out)]
        assert main(argv) == 2
        assert threading.active_count() == threads
        assert capsys.readouterr().err == (
            "twopath: not enough memory for this run (Unable to allocate 2.98 GiB)\n"
        )
        assert not out.exists()

    def test_interrupted_verify_leaves_no_thread_drawing(self, monkeypatch):
        # Ctrl-C in the calling thread's part of a run that would never end;
        # its first row is the determinism run, on the seed's own stream
        force_parts(monkeypatch, 2)
        first_row = 1
        grid, drawn = grid_failing(first_row, KeyboardInterrupt(), after=3)
        monkeypatch.setattr(measurement, "uniform_grid", grid)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            main(["verify", "--shots", str(2**62), "--seed", "1"])
        assert threading.active_count() == threads
        assert len(drawn) == 1 and drawn[0][0] < 100

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

    @pytest.mark.parametrize("argv, digest", [
        (["scan"], "d0707925d1ec018dc4105525660febcc350916bcd4e8334af6d7bbbc28c32f51"),
        (["sample", "--shots", "10"],
         "b6ceb4648b793753b05af4ba661248120cd393c14017d06796ca47812efbf965"),
    ], ids=["scan", "sample"])
    def test_widest_range_prints_no_warning(self, argv, digest):
        # the last point's index times the step overflows, as in
        # np.linspace, before the point is set to the end
        src = Path(twopath.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        argv = [sys.executable, "-m", "twopath.cli", *argv,
                "--from", "0", "--to", "1.7976931348623157e308", "--steps", "37"]
        run = subprocess.run(argv, capture_output=True, env=env, timeout=60)
        assert (run.returncode, run.stderr) == (0, b"")
        assert hashlib.sha256(run.stdout).hexdigest() == digest

    def test_io_error_unwritable_path(self, capsys):
        assert main(["scan", "--steps", "2", "--out", "/no/such/dir/x.csv"]) == 3
        assert "cannot write" in capsys.readouterr().err

    def test_io_error_names_the_out_path_as_given(self, capsys, monkeypatch, tmp_path):
        # not the temporary file it would be written under, whose name
        # differs on every run
        monkeypatch.chdir(tmp_path)
        runs = []
        for _ in range(2):
            assert main(["scan", "--steps", "3", "--out", "missing/x.csv"]) == 3
            runs.append(capsys.readouterr())
        assert runs[0] == runs[1]
        assert runs[0].out == ""
        assert runs[0].err == ("twopath: cannot write output: "
                               "[Errno 2] No such file or directory: 'missing/x.csv'\n")
        assert list(tmp_path.iterdir()) == []

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


#: Per kind of flag: a value that starts with "-", and what the parser stores.
PARSED = {int: ("-7", -7), float: ("-1e308", -1e308), str: ("-x.csv", "-x.csv")}


def table_flags(kinds=None):
    """(subcommand, spelling, flag) of every flag in the table, optionally
    only those whose kind is in ``kinds``."""
    return [(command, spelling, flag)
            for command, (_, flags) in cli.COMMANDS.items()
            for spelling, flag in flags.items()
            if kinds is None or flag.kind in kinds]


def flag_id(case):
    return f"{case[0]}{case[1]}"


def usage_error(argv, capsys) -> str:
    """The one stderr line of a run that must exit 2 with nothing on stdout."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"twopath: [^\n]+\n", err), err
    return err[len("twopath: "):-1]


class TestParser:
    """The argv grammar, read from the flag table cli.COMMANDS."""

    def parse(self, argv):
        return cli.build_parser().parse(argv)

    def expected(self, command, **given):
        values = {flag.dest: flag.default for flag in cli.COMMANDS[command][1].values()}
        return command, {**values, **given}

    def test_no_flag_gives_the_defaults(self):
        for command in cli.COMMANDS:
            assert self.parse([command]) == self.expected(command)
        # sample's defaults are RunConfig's
        _, values = self.parse(["sample"])
        assert {k: values[k] for k in ("shots", "seed", "order")} == {
            k: RunConfig._field_defaults[k] for k in ("shots", "seed", "order")
        }

    @pytest.mark.parametrize("case", table_flags(), ids=flag_id)
    def test_every_flag_in_both_forms(self, case):
        command, spelling, flag = case
        if flag.kind is None:
            assert self.parse([command, spelling]) == self.expected(command, **{flag.dest: True})
            return
        # a value may start with "-", as a negative number does
        text, value = (flag.kind[-1], flag.kind[-1]) if isinstance(flag.kind, tuple) else PARSED[flag.kind]
        want = self.expected(command, **{flag.dest: value})
        assert self.parse([command, spelling, text]) == want
        assert self.parse([command, f"{spelling}={text}"]) == want

    @pytest.mark.parametrize("case", table_flags((int, float, str)), ids=flag_id)
    def test_repeated_flag_keeps_its_last_value(self, case):
        command, spelling, flag = case
        text, value = PARSED[flag.kind]
        argv = [command, f"{spelling}=1", spelling, "2", f"{spelling}={text}"]
        assert self.parse(argv) == self.expected(command, **{flag.dest: value})

    def test_flags_in_any_order(self):
        argv = ["sample", "--order", "wp", "--steps=3", "--degrees", "--phi0", "-90"]
        assert self.parse(argv) == self.expected("sample", order="wp", steps=3, degrees=True, phi0=-90.0)

    @pytest.mark.parametrize("case", table_flags(), ids=flag_id)
    def test_abbreviated_flag_is_unknown(self, case, capsys):
        command, spelling, _ = case
        assert usage_error([command, spelling[:-1], "1"], capsys) == (
            f"unknown argument {spelling[:-1]!r} for {command} (see twopath {command} --help)"
        )

    @pytest.mark.parametrize("arg", ["--bogus", "--bogus=1", "-s", "extra", "--", "--workers"])
    def test_unknown_argument(self, arg, capsys):
        for command in cli.COMMANDS:
            assert usage_error([command, arg], capsys) == (
                f"unknown argument {arg!r} for {command} (see twopath {command} --help)"
            )

    @pytest.mark.parametrize("case", table_flags((int, float, str)) + table_flags((None,)), ids=flag_id)
    def test_value_less_flag(self, case, capsys):
        command, spelling, flag = case
        if flag.kind is None:  # a switch takes no value
            assert usage_error([command, f"{spelling}=1"], capsys) == (
                f"{spelling} takes no value, got '{spelling}=1'"
            )
        else:
            assert usage_error([command, spelling], capsys) == f"{spelling} needs a value"

    @pytest.mark.parametrize("case", table_flags((int, float)), ids=flag_id)
    @pytest.mark.parametrize("text", ["abc", "", "1.5.2", "0x10"])
    def test_non_numeric_value(self, case, text, capsys):
        command, spelling, flag = case
        kind = "an integer" if flag.kind is int else "a number"
        for argv in ([command, spelling, text], [command, f"{spelling}={text}"]):
            assert usage_error(argv, capsys) == f"{spelling} must be {kind}, got {text!r}"

    @pytest.mark.parametrize("text", ["qq", "", "PW", "bot"])
    def test_bad_order(self, text, capsys):
        assert usage_error(["sample", "--order", text], capsys) == (
            f"--order must be pw, wp or both, got {text!r}"
        )

    def test_subcommand_errors(self, capsys):
        assert usage_error([], capsys) == "missing subcommand: expected scan, sample or verify (see twopath --help)"
        for argv in (["scna"], ["--steps", "3", "scan"], ["sc"]):
            assert usage_error(argv, capsys) == (
                f"unknown subcommand {argv[0]!r}: expected scan, sample or verify"
            )

    def test_argv_defaults_to_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["twopath", "scan", "--steps", "2", "--from", "0", "--to", "1"])
        assert main() == 0
        assert capsys.readouterr().out.count("\n") == 3

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--help", "scan"], *(
        [command, *flags] for command in cli.COMMANDS
        for flags in (["--help"], ["-h"], [next(iter(cli.COMMANDS[command][1])), "3", "--help"],
                      ["-h", "--bogus"])
    )], ids=" ".join)
    def test_help_goes_through_emit(self, argv, capsys, monkeypatch):
        parser = cli.build_parser()
        command = None if argv[0] in ("-h", "--help") else argv[0]
        emitted = []
        monkeypatch.setattr(cli, "emit", lambda chunks, path: emitted.append((list(chunks), path)))
        assert main(argv) == 0
        assert capsys.readouterr() == ("", "")
        assert emitted == [([parser.help(command)], None)]

    def test_help_lists_every_flag(self, capsys):
        assert main(["--help"]) == 0
        top = capsys.readouterr().out
        for command, (summary, flags) in cli.COMMANDS.items():
            assert f"  {command}" in top and summary in top
            assert main([command, "--help"]) == 0
            text = capsys.readouterr().out
            assert text.startswith(f"usage: twopath {command} ")
            for spelling, flag in flags.items():
                assert re.search(rf"^  {re.escape(spelling)}\b.*{re.escape(flag.help)}", text, re.M)

    def test_main_uses_build_parser(self, monkeypatch, capsys):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        seen = []
        parse = parser.parse
        monkeypatch.setattr(parser, "parse", lambda argv: seen.append(argv) or parse(argv))
        assert main(["scan", "--steps", "2"]) == 0
        assert seen == [["scan", "--steps", "2"]]
        capsys.readouterr()


class TestOneWriter:
    def test_only_emit_opens_or_writes_output(self):
        # every output byte leaves through output.emit; the one other write
        # is main's error message on stderr
        def output_calls(module):
            """(calls inside ``emit``, calls elsewhere) that open or write."""
            tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
            emit = [n for n in tree.body if getattr(n, "name", None) == "emit"]
            in_emit = {id(n) for e in emit for n in ast.walk(e)}
            inside, outside = [], []
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) in ("open", "print")
                    or getattr(node.func, "attr", None) == "write"
                ):
                    (inside if id(node) in in_emit else outside).append(ast.unparse(node.func))
            return sorted(inside), outside

        assert output_calls(output) == (["fh.write", "open", "sys.stdout.write"], [])
        assert output_calls(cli) == ([], ["sys.stderr.write"])


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

    def test_quote_in_the_path_is_doubled(self, tmp_path, monkeypatch):
        # inside a single-quoted gnuplot string, '' stands for one '
        monkeypatch.chdir(tmp_path)
        assert main(["scan", "--steps", "3", "--out", "it's.csv", "--gnuplot"]) == 0
        script = (tmp_path / "it's.csv.gp").read_text(encoding="utf-8")
        assert script.splitlines()[-1] == "plot 'it''s.csv' using 1:2 with lines, '' using 1:6 with lines"


class TestRunConfig:
    def test_grid_is_inclusive_linspace(self):
        config = RunConfig(phi_start=0.0, phi_end=math.pi, steps=3)
        np.testing.assert_allclose(np.concatenate(list(config.grid())), [0.0, math.pi / 2, math.pi])

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
        text = "".join(cmd_scan(RunConfig(phi0=0.0, phi_start=0.0, phi_end=0.0, steps=1)))
        header, rows = parse_csv(text)
        assert len(rows) == 1
        assert abs(float(rows[0][1]) - 1.0) < 1e-12

    def test_cmd_sample_accepts_config_directly(self):
        text = "".join(cmd_sample(
            RunConfig(phi_start=0.5, phi_end=0.5, steps=1, shots=500, seed=1, order="pw")
        ))
        _, rows = parse_csv(text)
        assert len(rows) == 1
        assert int(rows[0][3]) == 500


finite = st.floats(allow_nan=False, allow_infinity=False)

# One argv per CSV shape; --steps is appended.
STREAMED = {
    "scan": ["scan", "--phi0", "0.6"],
    "scan-equal-ends": ["scan", "--from", "0.5", "--to", "0.5"],
    "sample-both": ["sample", "--phi0", "0.6", "--shots", "20", "--seed", "7"],
    "sample-pw": ["sample", "--shots", "20", "--order", "pw"],
    "sample-equal-ends": ["sample", "--from", "0.5", "--to", "0.5", "--shots", "20"],
}


class TestStreaming:
    """scan and sample in blocks of BLOCK_POINTS grid points, shrunk here."""

    @given(ends=st.lists(finite, min_size=2, max_size=2).map(sorted),
           steps=st.integers(1, 40), block=st.sampled_from([1, 2, 7]))
    @example(ends=[-1e300, 1e300], steps=15, block=7)
    @example(ends=[0.0, 1.7976931348623157e308], steps=37, block=7)  # the last point overflows
    @example(ends=[0.0, 5e-324], steps=9, block=2)
    @example(ends=[5e-324, 5e-324], steps=3, block=2)
    @example(ends=[0.5, 0.5], steps=8, block=7)
    @example(ends=[-0.0, 0.0], steps=1, block=1)
    def test_grid_blocks_join_to_linspace_bytes(self, ends, steps, block):
        start, stop = ends
        assume(stop - start < math.inf)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "BLOCK_POINTS", block)
            blocks = list(RunConfig(phi_start=start, phi_end=stop, steps=steps).grid())
        assert [b.size for b in blocks] == [min(block, steps - lo) for lo in range(0, steps, block)]
        with np.errstate(over="ignore"):  # as in grid(), only the last point, set to stop
            want = np.linspace(start, stop, steps)
        assert np.concatenate(blocks).tobytes() == want.tobytes()

    @pytest.mark.parametrize("block", [1, 2, 7])
    @pytest.mark.parametrize("name", list(STREAMED))
    def test_blocks_do_not_change_the_bytes(self, name, block, capsys, monkeypatch):
        whole_grid = cli.BLOCK_POINTS
        for steps in sorted({1, 2 * block - 1, 2 * block, 2 * block + 1, 3 * block}):
            argv = STREAMED[name] + ["--steps", str(steps)]
            outputs = []
            for points in (whole_grid, block):  # one block, then many
                monkeypatch.setattr(cli, "BLOCK_POINTS", points)
                assert main(argv) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[1] == outputs[0], argv

    @pytest.mark.parametrize("argv, steps", [(["scan"], 500), (["sample", "--shots", "10"], 200)],
                             ids=["scan", "sample"])
    def test_peak_memory_is_flat_in_steps(self, argv, steps, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "BLOCK_POINTS", 7)
        out = str(tmp_path / "run.csv")

        def peak_bytes(n):
            tracemalloc.start()
            try:
                assert main(argv + ["--steps", str(n), "--out", out]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(10 * steps)  # fills the interpreter's free lists first
        small, large = peak_bytes(steps), peak_bytes(10 * steps)
        # the whole output would add ~300 B per row
        assert large < small + 128 * 1024

    @pytest.mark.parametrize("command, owner, kernel, argv", [
        ("scan", cli, "interference_scan", ["scan", "--steps", "5"]),
        ("sample", measurement, "sequential_counts", ["sample", "--steps", "5", "--shots", "10"]),
    ], ids=["scan", "sample"])
    def test_fault_in_block_two(self, command, owner, kernel, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "BLOCK_POINTS", 2)
        assert main(argv) == 0
        whole = capsys.readouterr().out
        calls = []
        real = getattr(owner, kernel)

        def faulty(*args):
            calls.append(args)
            if len(calls) == 2:
                raise InvariantViolation("fault in block 2")
            return real(*args)

        monkeypatch.setattr(owner, kernel, faulty)
        # stdout: the header and block 1's lines, each complete
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err == "twopath: fault in block 2\n"
        lines_per_block = 2 if command == "scan" else 4
        assert out == "".join(whole.splitlines(keepends=True)[:1 + lines_per_block])
        # --out: a new file is never made, an existing one keeps its bytes
        existing = tmp_path / "old.csv"
        existing.write_text("old\n")
        for path in (tmp_path / "new.csv", existing):
            calls.clear()
            assert main(argv + ["--out", str(path)]) == 2
            assert capsys.readouterr().err == "twopath: fault in block 2\n"
        assert [p.name for p in tmp_path.iterdir()] == ["old.csv"]
        assert existing.read_text() == "old\n"

    @pytest.mark.parametrize("name", ["scan", "sample-both"])
    def test_out_devnull_is_written_in_place(self, name):
        assert main(STREAMED[name] + ["--steps", "3", "--out", os.devnull]) == 0
        assert stat.S_ISCHR(os.lstat(os.devnull).st_mode)

    def test_out_symlink_replaces_its_target(self, tmp_path, capsys, monkeypatch):
        # the file the link names is replaced as a whole, so a run that
        # fails leaves it as it was
        argv = ["scan", "--steps", "3"]
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target)

        def broken(phi0, phis):
            raise InvariantViolation("fault after the header")

        with monkeypatch.context() as patch:
            patch.setattr(cli, "interference_scan", broken)
            assert main(argv + ["--out", str(link)]) == 2
        assert target.read_text() == "old\n"
        assert main(argv) == 0
        assert main(argv + ["--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_text() == capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]

    def test_out_file_modes(self, tmp_path):
        new, opened = tmp_path / "new.csv", tmp_path / "opened.csv"
        umask = os.umask(0o027)
        try:
            assert main(["scan", "--steps", "3", "--out", str(new)]) == 0
            open(opened, "w").close()
        finally:
            os.umask(umask)
        assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(opened.stat().st_mode) == 0o640
        existing = tmp_path / "old.csv"
        existing.write_text("old\n")
        existing.chmod(0o604)
        assert main(["scan", "--steps", "3", "--out", str(existing)]) == 0
        assert stat.S_IMODE(existing.stat().st_mode) == 0o604
        assert existing.read_text().startswith("phi,")

    def test_out_file_mode_comes_without_the_umask(self, tmp_path, monkeypatch):
        # the kernel applies the umask, as for open(); the process-wide
        # umask is neither read nor set
        def forbidden(mask):
            raise AssertionError("os.umask changes the whole process")

        new = tmp_path / "new.csv"
        umask = os.umask(0o027)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(os, "umask", forbidden)
                assert main(["scan", "--steps", "3", "--out", str(new)]) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(new.stat().st_mode) == 0o640

    def test_out_names_up_to_the_file_name_limit(self, tmp_path, capsys, monkeypatch):
        # the temporary's name has a fixed length, so --out takes every name open() takes
        monkeypatch.chdir(tmp_path)
        limit = os.pathconf(tmp_path, "PC_NAME_MAX")
        longest, too_long = "a" * (limit - 4) + ".csv", "a" * (limit - 3) + ".csv"
        assert main(["scan", "--steps", "3"]) == 0
        whole = capsys.readouterr().out
        assert main(["scan", "--steps", "3", "--out", longest]) == 0
        assert (tmp_path / longest).read_bytes() == whole.encode()
        assert main(["scan", "--steps", "3", "--out", too_long]) == 3
        assert capsys.readouterr() == (
            "", f"twopath: cannot write output: [Errno 36] File name too long: '{too_long}'\n")
        assert [p.name for p in tmp_path.iterdir()] == [longest]

    @pytest.mark.parametrize("out, refuse_chmod, message", [
        ("old.csv", True, "[Errno 1] Operation not permitted"),
        ("old.csv/x.csv", False, "[Errno 20] Not a directory: 'old.csv/x.csv'"),
    ], ids=["chmod-refused", "parent-is-a-file"])
    def test_out_failure_before_the_first_chunk(self, out, refuse_chmod, message,
                                                tmp_path, capsys, monkeypatch):
        # no temporary and no open descriptor stay behind, the target is
        # as it was, and the error names --out as given
        def refuse(fd, mode):
            raise PermissionError(1, "Operation not permitted")

        monkeypatch.chdir(tmp_path)
        (tmp_path / "old.csv").write_text("old\n")
        if refuse_chmod:
            monkeypatch.setattr(os, "fchmod", refuse)
        fds = len(os.listdir("/proc/self/fd"))
        assert main(["scan", "--steps", "3", "--out", out]) == 3
        assert capsys.readouterr() == ("", f"twopath: cannot write output: {message}\n")
        assert len(os.listdir("/proc/self/fd")) == fds
        assert [p.name for p in tmp_path.iterdir()] == ["old.csv"]
        assert (tmp_path / "old.csv").read_text() == "old\n"


# Per flag, values within its bounds and values beyond them.  Valid shots
# and steps stay small, so each run takes milliseconds: a valid run of
# 2**62 shots never ends, so none is drawn.
ANGLES = st.sampled_from(["0", "0.6", "-3.5", "180", "1e-320", "1e308", "-1e308", "1.7e308"])
FLAG_VALUES = {
    "--phi0": (ANGLES, st.sampled_from(["nan", "inf", "-inf", "pi", ""])),
    "--from": (ANGLES, st.sampled_from(["nan", "-inf", "1e309"])),
    "--to": (ANGLES, st.sampled_from(["nan", "inf", "-1e309"])),
    "--steps": (st.integers(1, 5).map(str),
                st.sampled_from(["-1", "0", str(2**60), str(10**20), "1.5", "x"])),
    "--shots": (st.integers(1, 50).map(str), st.sampled_from(["-1", "0", "1e3", "0x10", ""])),
    "--seed": (st.sampled_from(["0", "7", str(2**64 - 1)]),
               st.sampled_from(["-1", str(2**64), str(10**30), "x"])),
    "--order": (st.sampled_from(["pw", "wp", "both"]), st.just("qq")),
}


@st.composite
def argvs(draw):
    """A sample or verify argv with at most one flag beyond its bounds, and
    the --out path under a fresh directory (None for stdout), which may
    name a directory that does not exist."""
    command = draw(st.sampled_from(["sample", "verify"]))
    flags = list(FLAG_VALUES) if command == "sample" else ["--shots", "--seed"]
    broken = draw(st.sampled_from([None, *flags]))
    argv = [command]
    for flag in flags:
        valid, beyond = FLAG_VALUES[flag]
        # sample's default of 100000 shots would make a slow example
        if flag == broken or flag == "--shots" and command == "sample" or draw(st.booleans()):
            argv.append(f"{flag}={draw(beyond if flag == broken else valid)}")
    if command == "verify":
        return argv, None
    argv += [switch for switch in ("--degrees", "--gnuplot") if draw(st.booleans())]
    return argv, draw(st.sampled_from([None, "out.csv", "missing/out.csv"]))


class TestContract:
    """Every argv ends in a documented exit code with its message, never
    in a traceback, and leaves no thread behind."""

    @settings(max_examples=80)
    @given(case=argvs())
    @example(case=(["sample", "--from=-1e308", "--to=1e308", "--shots=5"], None))
    @example(case=(["sample", "--degrees", "--phi0=1e308", "--shots=5"], "out.csv"))
    @example(case=(["sample", "--steps=1", "--shots=5", "--gnuplot"], "missing/out.csv"))
    @example(case=(["sample", "--shots=5", "--gnuplot"], None))
    @example(case=(["verify", "--shots=0"], None))
    @example(case=(["verify", "--shots=1", "--seed=7"], None))
    def test_exit_code_and_message(self, case):
        argv, out = case
        threads = threading.active_count()
        stdout, stderr = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            if out is not None:
                argv = argv + ["--out", os.path.join(tmp, out)]
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        err = stderr.getvalue()
        assert "Traceback" not in err
        assert threading.active_count() == threads
        assert code in (0, 1, 2, 3)
        if code == 0:
            assert err == ""
        elif code == 1:  # a failed check is reported on stdout
            assert err == "" and "FAIL" in stdout.getvalue()
        else:
            assert re.fullmatch(r"twopath: [^\n]+\n", err)
