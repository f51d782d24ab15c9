"""Re-pin the golden outputs that bench.py compares against.

    python3 benchmarks/capture_golden.py

Runs every workload once at the golden seed and stores its output,
gzipped, under ``benchmarks/golden/`` with a manifest of argv and
sha256.  The manifest also names verify's statistical checks: the ones
that ``verify --shots`` adds to the analytic ``verify``.  Re-pin only
when a change alters the output on purpose, and say so in the change.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import sys
from pathlib import Path

import bench


def run_cli(cli, argv: list[str], out: Path) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return buf.getvalue().encode() if argv[0] == "verify" else out.read_bytes()


def main() -> None:
    bench.import_twopath()
    cli = sys.modules["twopath.cli"]
    tmp = bench.RESULTS / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    bench.GOLDEN.mkdir(exist_ok=True)
    manifest = {"seed": bench.GOLDEN_SEED, "workloads": {}}
    for name in bench.WORKLOADS:
        out = tmp / f"{name}.golden"
        data = run_cli(cli, bench.workload_argv(name, bench.GOLDEN_SEED, out), out)
        filename = f"{name}.out.gz"
        (bench.GOLDEN / filename).write_bytes(gzip.compress(data, mtime=0))
        manifest["workloads"][name] = {
            "argv": bench.workload_argv(name, bench.GOLDEN_SEED, Path("OUT")),
            "file": filename,
            "sha256": hashlib.sha256(data).hexdigest(),
        }
    import checks

    analytic = run_cli(cli, ["verify"], tmp / "unused").decode()
    sampled = run_cli(cli, ["verify", "--shots", "1000", "--seed", str(bench.GOLDEN_SEED)], tmp / "unused").decode()
    analytic_names = {n for _, n in checks.verify_states(analytic)[0]}
    manifest["statistical_checks"] = [n for _, n in checks.verify_states(sampled)[0] if n not in analytic_names]
    (bench.GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    main()
