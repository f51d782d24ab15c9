"""Self-test of the benchmark itself.

    python3 benchmarks/selftest.py

1. At tiny sizes, every metric BENCHMARK.json names is emitted for every
   workload with its unit, in both modes, and each workload loads the
   layers it was chosen for.
2. The output checks accept the golden outputs and reject deliberately
   corrupted copies of them.
3. A corrupted program output is counted in ``failed`` / ``fail_ratio``,
   both when every call is corrupted and when only one rerun is.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import bench

TINY = {
    "scan-dense": ("scan", "--phi0", "0.6", "--from", "-3.14159", "--to", "3.14159", "--steps", "21"),
    "sample-deep": ("sample", "--phi0", "0.6", "--steps", "3", "--shots", "20000", "--order", "both"),
    "sample-wide": ("sample", "--phi0", "0.6", "--steps", "21", "--shots", "100", "--order", "both"),
    "verify-mc": ("verify", "--shots", "2000"),
}
SEED = 7  # not the golden seed: the tiny sizes have no golden output
SECONDS = 0.3

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'}  {what}")
    if not ok:
        failures.append(what)


def printed_result(record: dict) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        bench.report(record)
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def check_metrics_emitted(spec: dict) -> None:
    for name in bench.WORKLOADS:
        for trace in (0, 1):
            record = bench.run(name, SEED, SECONDS, bool(trace))
            result = printed_result(record)
            declared = spec["per_layer" if trace else "end_to_end"]
            emitted = result["metrics"]
            expect(
                [m["name"] for m in declared] == list(emitted)
                and all(emitted[m["name"]]["unit"] == m["unit"] for m in declared),
                f"{name} trace={trace}: emits every declared metric with its unit",
            )
            expect(result["correct"] and result["failed"] == 0, f"{name} trace={trace}: outputs pass their checks")
            if trace:
                layers = record["per_layer"]
                if name == "scan-dense":
                    expect(layers["rng.calls"] == layers["measurement.calls"] == 0, "scan-dense never calls rng or measurement")
                expect(
                    (layers["complementarity.calls"] > 0) == (name == "verify-mc"),
                    f"{name}: complementarity is called only on verify-mc",
                )
                expect(abs(layers["trace.self_coverage"] - 1.0) < 0.01, f"{name}: layer self times add up to the traced wall time")


def corrupt_n_plus(text: str) -> str:
    header, first, rest = text.split("\n", 2)
    cells = first.split(",")
    cells[8] = str(int(cells[8]) + 1)
    return "\n".join([header, ",".join(cells), rest])


def corrupt_w(text: str) -> str:
    header, first, rest = text.split("\n", 2)
    cells = first.split(",")
    cells[1] = format(float(cells[1]) + 1e-6, ".17g")
    return "\n".join([header, ",".join(cells), rest])


def corrupt_verify(text: str) -> str:
    """An analytic check reported as failed, with a consistent tally."""
    text = text.replace("PASS  path_spread_unity", "FAIL  path_spread_unity", 1)
    passed, total = text.rstrip("\n").rsplit("\n", 1)[1].split()[0].split("/")
    return text.replace(f"{passed}/{total} checks passed", f"{int(passed) - 1}/{total} checks passed")


def check_golden_checks() -> None:
    import checks

    cases = (("sample-deep", corrupt_n_plus), ("scan-dense", corrupt_w), ("verify-mc", corrupt_verify))
    for name, corrupt in cases:
        golden = bench.load_golden(name)
        argv = list(golden.argv)
        ok = checks.check_output(argv, golden.text, 0, golden.text, True, golden.statistical)
        expect(ok == [], f"{name}: the golden output passes the checks")
        bad = checks.check_output(argv, corrupt(golden.text), 0, golden.text, True, golden.statistical)
        expect(bad != [], f"{name}: a corrupted golden output fails them ({'; '.join(bad)})")
        bad = checks.check_output(argv, corrupt(golden.text), 0, golden.text, False, golden.statistical)
        expect(bad != [], f"{name}: ... also by the closed forms alone, at another seed")


def check_fail_ratio() -> None:
    cli = sys.modules["twopath.cli"]
    real_main = cli.main
    for name, corrupt, only_call in (
        ("sample-wide", corrupt_n_plus, None),
        ("scan-dense", corrupt_w, None),
        ("sample-wide", corrupt_n_plus, 2),
    ):
        calls = []

        def corrupted_main(argv, corrupt=corrupt, only_call=only_call, calls=calls):
            code = real_main(argv)
            calls.append(argv)
            if only_call is None or len(calls) == only_call:
                path = argv[argv.index("--out") + 1]
                with open(path, encoding="utf-8", newline="") as fh:
                    text = fh.read()
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(corrupt(text))
            return code

        cli.main = corrupted_main
        try:
            record = bench.run(name, SEED, SECONDS, False)
        finally:
            cli.main = real_main
        ratio = record["info"]["fail_ratio"]
        if only_call is None:
            expect(record["failed"] == record["attempted"] and ratio == 1.0, f"{name}: every corrupted call counts as failed")
        else:
            expect(
                0 < record["failed"] < record["attempted"] and not record["correct"],
                f"{name}: one corrupted rerun counts as failed ({record['failed']} of {record['attempted']})",
            )


def main() -> int:
    bench.import_twopath()
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS), "BENCHMARK.json names the bench workloads")
    expect(
        [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
        and [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER),
        "BENCHMARK.json declares the metrics bench.py reports",
    )
    check_golden_checks()
    bench.WORKLOADS = TINY
    check_metrics_emitted(spec)
    check_fail_ratio()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
