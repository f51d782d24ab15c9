"""End-to-end and per-layer benchmark of the twopath CLI.

    python3 benchmarks/bench.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs the real entry point ``twopath.cli.main(argv)`` on one named
workload, in this single-threaded process, from the sources in ``src/``
next to this directory.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (wall time of one
CLI call, set-up time of a fresh interpreter, peak RSS of a fresh child
running the workload once).  The two times are scaled to a fixed
reference host speed by a probe timed during and around each of them
(``probe.py``), because on a shared host the raw times drift by a third
with the neighbours' load; the raw medians are printed and stored too.  With ``--trace 1`` part of the time budget
runs with every layer function wrapped (see ``tracing.py``) and the
metrics are the per-layer ones.  The lines above the JSON print every
metric by name with its unit, plus sample counts, tail percentiles,
output digests and the fail ratio.  A full record, with provenance,
goes to ``benchmarks/results/<workload>-trace<T>.json`` and the spans of
the last traced call to ``benchmarks/results/<workload>.spans.npz``.

Every output is checked (``checks.py``); an invocation that exits
non-zero, fails a check, or differs in any byte from the first output of
the same seed counts as failed.
"""

from __future__ import annotations

import os

# Every process the benchmark runs is single-threaded, so the load stays
# within the machine's cores; set before numpy is imported anywhere.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracing
from probe import PYTHON_REFERENCE_S, HostProbe
from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
GOLDEN = HERE / "golden"

#: The seed the golden outputs were captured at (the CLI's default).
GOLDEN_SEED = 1
MAX_SEED = 0xFFFFFFFFFFFFFFFF

#: Base argv per workload; ``--seed`` (sample, verify) and ``--out``
#: (scan, sample) are appended.  scan is fully analytic and takes no seed.
WORKLOADS = {
    # Pure analytic work at ~100 us per point: interferometer, qalgebra,
    # uncertainty and CSV formatting; rng and measurement never run.
    "scan-dense": ("scan", "--phi0", "0.6", "--from", "-3.14159", "--to", "3.14159", "--steps", "20001"),
    # Per-shot work: 6 rows of 4e6 shots, dominated by rng draws and the
    # outcome statistics; peak RSS grows with shots.
    "sample-deep": ("sample", "--phi0", "0.6", "--steps", "3", "--shots", "4000000", "--order", "both"),
    # The same layers with the cost per call: 4002 rows of 1000 shots, so
    # per-row set-up (eigensystems, states, derive, CSV row) dominates.
    "sample-wide": ("sample", "--phi0", "0.6", "--steps", "2001", "--shots", "1000", "--order", "both"),
    # The only workload that runs complementarity and the named checks;
    # half analytic grid checks, half Monte Carlo.
    "verify-mc": ("verify", "--shots", "200000"),
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: Warm per-call costs timed from outside, untraced: (metric, unit).
ISOLATED = (
    ("qalgebra.expectation_us", "us"),
    ("qalgebra.variance_us", "us"),
    ("qalgebra.eig_hermitian_us", "us"),
    ("interferometer.balanced_state_us", "us"),
    ("interferometer.wave_operator_us", "us"),
    ("uncertainty.duality_report_us", "us"),
    ("complementarity.derive_wave_eigenbasis_us", "us"),
    ("verify.run_verification_ms", "ms"),
    ("measurement.measure_us", "us"),
    ("measurement.sequential_experiment_ms", "ms"),
    ("rng.uniforms_ns_per_draw", "ns"),
)

PER_LAYER = (
    tuple((f"{layer}.{what}", unit) for layer in LAYERS for what, unit in (("calls", "count"), ("self_s", "s")))
    + (
        ("rng.draws", "count"),
        ("rng.ns_per_draw", "ns"),
        ("measurement.shots", "count"),
        ("measurement.ns_per_shot", "ns"),
        ("measurement.us_per_call", "us"),
        ("cli.rows", "count"),
        ("cli.us_per_row", "us"),
        ("sample.rss_bytes_per_shot", "B"),
        ("traced_wall_s", "s"),
        ("trace_overhead_s", "s"),
        ("trace.self_coverage", "ratio"),
    )
    + ISOLATED
)

#: Fresh interpreters timed for setup_s; the median is reported.  Half
#: run before the timed calls and half after, because on a shared host a
#: slow phase lasts seconds and would otherwise cover every child.
SETUP_CHILDREN = 16
#: Shares of --seconds in a traced run: untraced calls, traced calls,
#: isolated per-call costs.
TRACE_SHARES = (0.4, 0.4, 0.2)
MIN_CALLS = 3
MIN_TRACED_CALLS = 2
CHILD_TIMEOUT_S = 120
NOTES = (
    "sample at 1e8 shots is not run: at ~64 B per shot its peak RSS (~6 GB) does not fit an 8 GB machine",
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; nothing is reported."""


def workload_argv(name: str, seed: int, out: Path) -> list[str]:
    argv = list(WORKLOADS[name])
    if argv[0] != "scan":
        argv += ["--seed", str(seed)]
    if argv[0] != "verify":
        argv += ["--out", str(out)]
    return argv


def import_twopath():
    """Import the package from this checkout's sources, never from elsewhere."""
    if not (SRC / "twopath" / "cli.py").is_file():
        raise BenchError(f"no twopath sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import twopath
    import twopath.cli

    if Path(twopath.__file__).resolve().parent != SRC / "twopath":
        raise BenchError(f"imported twopath from {twopath.__file__}, not {SRC}")
    return twopath


# -- golden outputs ---------------------------------------------------------


@dataclass(frozen=True)
class Golden:
    text: str
    statistical: frozenset[str]
    argv: tuple[str, ...]


def load_golden(name: str) -> Golden:
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    entry = manifest["workloads"][name]
    with gzip.open(GOLDEN / entry["file"], "rt", encoding="utf-8", newline="") as fh:
        text = fh.read()
    return Golden(text, frozenset(manifest["statistical_checks"]), tuple(entry["argv"]))


# -- invocations --------------------------------------------------------------


@dataclass
class Ledger:
    """Counts invocations; each must repeat the checked first output."""

    reference: bytes
    code: int
    problems: list[str]
    attempted: int = 0
    failed: int = 0

    def __post_init__(self) -> None:
        self.reference_failed = bool(self.problems)

    def record(self, code: int, out: bytes) -> None:
        self.attempted += 1
        rerun_ok = code == self.code and out == self.reference
        if not rerun_ok:
            note = "a same-seed rerun changed the exit code or output bytes"
            if note not in self.problems:
                self.problems.append(note)
        if not rerun_ok or self.reference_failed:
            self.failed += 1


def invoke(cli, argv: list[str], out_path: Path, probe: HostProbe | None = None):
    """One in-process CLI call: (exit code, output bytes, wall seconds,
    wall seconds at the probe's reference speed or None without a probe)."""
    out_path.unlink(missing_ok=True)
    gc.collect()
    buf = io.StringIO()
    sampling = probe.sampling() if probe else contextlib.nullcontext()
    try:
        with contextlib.redirect_stdout(buf), sampling as taken:
            start = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - start
    except Exception:  # a crash is a failed invocation, not a benchmark error
        traceback.print_exc()
        return -1, b"", 0.0, None
    scaled = taken.scale(wall) if probe else None
    if argv[0] == "verify":
        return code, buf.getvalue().encode(), wall, scaled
    return code, out_path.read_bytes() if out_path.exists() else b"", wall, scaled


def timed_calls(cli, argv, out_path, ledger: Ledger, budget_s: float, min_calls: int):
    """Probed calls for ``budget_s``: (raw walls, walls at reference speed)."""
    probe = HostProbe()
    walls, scaled = [], []
    start = time.perf_counter()
    while len(walls) < min_calls or time.perf_counter() - start < budget_s:
        code, out, wall, at_reference = invoke(cli, argv, out_path, probe)
        ledger.record(code, out)
        walls.append(wall)
        scaled.append(at_reference if at_reference is not None else wall)
    return walls, scaled


def child(args: list[str]) -> dict:
    """Run child.py in a fresh interpreter and return its JSON report."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- per-layer metrics --------------------------------------------------------


def isolated_costs(budget_s: float, seed: int) -> dict[str, float]:
    """Warm per-call costs of public layer functions, min over repeats."""
    from twopath import complementarity as comp
    from twopath import interferometer as ifm
    from twopath import measurement as meas
    from twopath import qalgebra as qa
    from twopath import uncertainty as unc
    from twopath import verify as ver
    from twopath.rng import RandomStream

    wave, state = ifm.wave_operator(0.6), ifm.balanced_state(0.3)
    stream = RandomStream(seed)
    order = meas.MeasurementOrder.P_THEN_W
    calls = {
        "qalgebra.expectation_us": (1e6, lambda: qa.expectation(wave, state)),
        "qalgebra.variance_us": (1e6, lambda: qa.variance(wave, state)),
        "qalgebra.eig_hermitian_us": (1e6, lambda: qa.eig_hermitian(wave)),
        "interferometer.balanced_state_us": (1e6, lambda: ifm.balanced_state(0.3)),
        "interferometer.wave_operator_us": (1e6, lambda: ifm.wave_operator(0.6)),
        "uncertainty.duality_report_us": (1e6, lambda: unc.duality_report(0.3, 0.6)),
        "complementarity.derive_wave_eigenbasis_us": (1e6, lambda: comp.derive_wave_eigenbasis(0.6)),
        "verify.run_verification_ms": (1e3, lambda: ver.run_verification()),
        "measurement.measure_us": (1e6, lambda: meas.measure(wave, state, stream)),
        "measurement.sequential_experiment_ms": (
            1e3,
            lambda: meas.sequential_experiment(order, 0.3, 0.6, 1_000_000, RandomStream(seed)),
        ),
        "rng.uniforms_ns_per_draw": (1e9 / 2_000_000, lambda: RandomStream(seed).uniforms(2_000_000)),
    }
    each_s = budget_s / len(calls)
    costs = {}
    for name, (scale, fn) in calls.items():
        start = time.perf_counter()
        fn()
        once = time.perf_counter() - start
        number = max(1, int(0.01 / max(once, 1e-9)))  # batches of ~10 ms
        best = once
        repeats = 0
        deadline = time.perf_counter() + each_s
        while repeats < 3 or time.perf_counter() < deadline:
            start = time.perf_counter()
            for _ in range(number):
                fn()
            best = min(best, (time.perf_counter() - start) / number)
            repeats += 1
        costs[name] = best * scale
    return costs


def layer_metrics(totals, n_calls: int, rows: int) -> dict[str, float]:
    def per_call(values, i: int) -> float:
        return float(values[i]) / n_calls

    metrics: dict[str, float] = {}
    for i, layer in enumerate(LAYERS):
        metrics[f"{layer}.calls"] = per_call(totals.layer_calls, i)
        metrics[f"{layer}.self_s"] = per_call(totals.layer_self_ns, i) / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    rng, meas, cli = (LAYERS.index(name) for name in ("rng", "measurement", "cli"))
    metrics["rng.draws"] = per_call(totals.layer_work, rng)
    metrics["rng.ns_per_draw"] = ratio(totals.layer_self_ns[rng], totals.layer_work[rng])
    metrics["measurement.shots"] = per_call(totals.layer_work, meas)
    metrics["measurement.ns_per_shot"] = ratio(totals.layer_self_ns[meas], totals.layer_work[meas])
    metrics["measurement.us_per_call"] = ratio(totals.layer_self_ns[meas], totals.layer_entries[meas]) / 1e3
    metrics["cli.rows"] = float(rows)
    metrics["cli.us_per_row"] = ratio(per_call(totals.layer_self_ns, cli), rows) / 1e3
    return metrics


# -- one run ------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the full record."""
    twopath = import_twopath()
    import checks

    cli = sys.modules["twopath.cli"]
    tmp = RESULTS / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    out_path = tmp / f"{name}.out"
    argv = workload_argv(name, seed, out_path)
    golden = load_golden(name)
    at_golden_seed = seed == GOLDEN_SEED and workload_argv(name, seed, Path("OUT")) == list(golden.argv)

    code, out, _, _ = invoke(cli, argv, out_path)  # warm-up and reference output
    problems = checks.check_output(argv, out.decode(), code, golden.text, at_golden_seed, golden.statistical)
    ledger = Ledger(out, code, list(problems))
    ledger.record(code, out)

    setups = [child(["setup"]) for _ in range(SETUP_CHILDREN // 2)]
    child_out = tmp / f"{name}.child.out"
    child_stdout = tmp / f"{name}.child.stdout"
    child_out.unlink(missing_ok=True)
    rss = child(["run", str(child_stdout), *workload_argv(name, seed, child_out)])
    child_result = child_stdout if argv[0] == "verify" else child_out
    ledger.record(rss["code"], child_result.read_bytes() if child_result.exists() else b"")

    untraced_s, traced_s, isolated_s = TRACE_SHARES if trace else (1.0, 0.0, 0.0)
    walls, scaled = timed_calls(cli, argv, out_path, ledger, seconds * untraced_s, MIN_CALLS)
    setups += [child(["setup"]) for _ in range(SETUP_CHILDREN - len(setups))]
    baseline_kib = statistics.median(s["maxrss_kib"] for s in setups)
    peak_rss_mb = rss["maxrss_kib"] * 1024 / 1e6
    end_to_end = {
        "wall_s": statistics.median(scaled),
        "setup_s": statistics.median(s["setup_s"] * PYTHON_REFERENCE_S / s["probe_s"] for s in setups),
        "peak_rss_mb": peak_rss_mb,
    }
    text = out.decode()
    info = {
        "wall_s.samples": len(scaled),
        "wall_s.tail": tail_percentile(scaled),
        "raw_wall_s": statistics.median(walls),
        "raw_wall_s.tail": tail_percentile(walls),
        "raw_setup_s": statistics.median(s["setup_s"] for s in setups),
        "output_sha256": hashlib.sha256(out).hexdigest(),
        "golden_compared": at_golden_seed,
        "problems": ledger.problems,
        "import_only_rss_mb": baseline_kib * 1024 / 1e6,
    }
    if argv[0] == "verify":
        info["statistical_checks_failed"] = checks.statistical_failures(text, golden.statistical)

    per_layer: dict[str, float] = {}
    functions: list[dict] = []
    if trace:
        per_layer, functions, info["wall_s.traced_samples"] = traced_part(
            name, cli, argv, out_path, ledger, seconds * traced_s, text
        )
        per_layer["trace_overhead_s"] = per_layer["traced_wall_s"] - info["raw_wall_s"]
        shots = int(checks.options(argv).get("--shots", 0))
        per_layer["sample.rss_bytes_per_shot"] = (
            (rss["maxrss_kib"] - baseline_kib) * 1024 / shots if shots else 0.0
        )
        per_layer.update(isolated_costs(seconds * isolated_s, seed))
        per_layer = {metric: per_layer[metric] for metric, _ in PER_LAYER}
    info["fail_ratio"] = ledger.failed / ledger.attempted

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "argv": argv,
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "info": info,
        "notes": list(NOTES),
        "provenance": provenance(twopath, seed, argv),
        "functions": functions,
    }


def traced_part(name, cli, argv, out_path, ledger, budget_s, text) -> tuple[dict, list, int]:
    """Per-layer metrics from traced calls; spans of the last call are saved."""
    tracer = tracing.Tracer()
    pooled = []
    tracer.install()
    try:
        walls = []
        start = time.perf_counter()
        while len(walls) < MIN_TRACED_CALLS or time.perf_counter() - start < budget_s:
            tracer.clear()
            code, out, wall, _ = invoke(cli, argv, out_path)
            ledger.record(code, out)
            walls.append(wall)
            pooled.append(tracer.totals())
    finally:
        tracer.uninstall()
    RESULTS.mkdir(parents=True, exist_ok=True)
    tracer.save(RESULTS / f"{name}.spans.npz")
    totals = pooled[0]
    for more in pooled[1:]:
        totals = totals + more
    rows = max(text.count("\n") - 1, 0)
    metrics = layer_metrics(totals, len(walls), rows)
    metrics["traced_wall_s"] = statistics.median(walls)
    metrics["trace.self_coverage"] = float(totals.layer_self_ns.sum()) / (sum(walls) * 1e9)
    functions = [
        {
            "name": fname,
            "layer": LAYERS[tracer.layers[fid]],
            "calls": float(totals.func_calls[fid]) / len(walls),
            "self_s": float(totals.func_self_ns[fid]) / len(walls) / 1e9,
        }
        for fid, fname in enumerate(tracer.names)
        if totals.func_calls[fid]
    ]
    functions.sort(key=lambda f: -f["self_s"])
    return metrics, functions, len(walls)


def tail_percentile(samples: list[float]) -> dict | None:
    """The highest order statistic with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10
    return {"percentile": 100.0 * k / n, "value": sorted(samples)[k - 1]}


# -- provenance ---------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unavailable"


def cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.partition(":")[2].strip()
    return platform.processor() or "unavailable"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "twopath").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(twopath, seed: int, argv: list[str]) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "cgroup_cpu_max": _read("/sys/fs/cgroup/cpu.max"),
        "cgroup_memory_max": _read("/sys/fs/cgroup/memory.max"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "twopath": twopath.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "seed": seed,
        "argv": argv,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# -- entry point ----------------------------------------------------------------


def report(record: dict) -> None:
    """Print every metric by name and unit, then the one-line JSON result."""
    units = dict(END_TO_END + PER_LAYER)
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} argv={' '.join(record['argv'])}")
    for group in ("end_to_end", "per_layer"):
        for metric, value in record[group].items():
            print(f"{metric:<44} {value:>16.6g} {units[metric]}")
    info = record["info"]
    print(f"{'fail_ratio':<44} {info['fail_ratio']:>16.6g} ratio ({record['failed']} of {record['attempted']})")
    tail = info["wall_s.tail"]
    tail_text = "n/a (fewer than 11 samples)" if tail is None else f"p{tail['percentile']:.0f} = {tail['value']:.6g} s"
    print(f"# wall_s samples: {info['wall_s.samples']}; tail: {tail_text}")
    print(f"# raw, unscaled medians: wall {info['raw_wall_s']:.6g} s, setup {info['raw_setup_s']:.6g} s")
    print(f"# output sha256 {info['output_sha256']} (information only)")
    for problem in info["problems"]:
        print(f"# PROBLEM: {problem}")
    for note in record["notes"]:
        print(f"# note: {note}")
    metrics = record["per_layer"] if record["trace"] else record["end_to_end"]
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed <= MAX_SEED:
        parser.error(f"--seed must fit in 64 unsigned bits, got {args.seed}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    report(record)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
