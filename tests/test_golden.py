"""Golden digests: the CLI's output bytes for fixed configurations.

Rerunning the same code only shows that a run is deterministic; these
digests also show whether a change to the code moved any output byte.
A change that alters output on purpose re-pins the affected digest and
says which columns moved and why.

History: the `scan` and `verify` digests date from before the sampler
was rebuilt around counts and are unchanged by it.  The two `sample`
digests were re-pinned with that rebuild, whose variance columns are the
exact 4 n+ n- / n^2 rounded once instead of np.var's value (a few ulp
apart); every other sample column kept its bytes.  The three further
`scan` digests (a wide range far from the origin, a single wave
eigenstate, and a degree grid) were pinned before `scan` moved from
per-point reports to one batch per column, and that move kept them.
The last four are the argvs of the benchmark's workloads (scan-dense,
sample-deep, sample-wide and verify-mc, the sampled ones at seed 1),
whose bytes every refactor since the batched scan has kept; they were
added unchanged, so the suite checks what had been compared by hand.
The sampled digests hold whether the sampler runs its rows as one part
or as two.  The two one-row runs of more than measurement.EXACT_SHOTS
shots were pinned when the "%" row formatter that had printed such rows
was deleted, at the bytes it printed.

The `scan` and `verify` digests were re-pinned once, when every 2x2
quantity moved from OpenBLAS and numpy's complex loops to one formula of
real + - * (``qalgebra``): before, their last bits followed the BLAS
kernel picked for the CPU.  p_expectation became exactly 0 on every
balanced row, and the other scan columns and verify's residuals moved by
at most 3.3e-16.  No `sample` digest moved.  The subprocess test below
holds the new bytes under other BLAS kernels and SIMD levels.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twopath

from support import SIMD_LEVELS, force_parts
from twopath import measurement, output
from twopath.cli import main

GOLDEN = [
    (
        ["scan", "--phi0", "0.6", "--from", "-3.14159", "--to", "3.14159", "--steps", "73"],
        "cd3dbc558f28717eb95c559036c92986932401f9e012da1765e1cdc69b05222c",
    ),
    (
        # 70000 shots per row: three sampler chunks, the last one partial
        ["sample", "--phi0", "0.6", "--steps", "5", "--shots", "70000", "--seed", "7", "--order", "both"],
        "5f36a1044a0d312111f951be39808f345e8eb62861077cb04077ee4dba912f34",
    ),
    (
        ["sample", "--phi0", "-1.1", "--steps", "4", "--shots", "1000", "--seed", "3", "--order", "wp"],
        "3163e7f04e1a5300b2a90fa70a9efd223485b34f8950cfcc0fd7f693ef61e62d",
    ),
    (
        ["scan", "--phi0", "100.3", "--from", "-50", "--to", "70", "--steps", "5001"],
        "3e8bdcc53c3299916868d72ebccc2ef9998f8eb7f3241098679ca5781172e200",
    ),
    (
        # a single point, at a wave eigenstate: delta_w, bound and gap vanish
        ["scan", "--phi0", "0.6", "--from", "0.6", "--to", "0.6", "--steps", "1"],
        "845f217d9fa899afb62f20714667fc8359e550eb6aa8ed4c8105e44076a132db",
    ),
    (
        ["scan", "--phi0", "30", "--from", "-180", "--to", "180", "--steps", "361", "--degrees"],
        "b0c3c245c91e1f9af2a2d6264af2beb8380832664a430dcf9785f0c38bbe9f89",
    ),
    (
        ["verify"],
        "f37c71270584edfa92f822d10b7aeca9cb85c455507c5ea808185b10b496a83e",
    ),
    (
        ["verify", "--shots", "20000"],
        "d2c4686dd485a0346f134184770993efb69606e8f84da36e2eb9ac751acae089",
    ),
    (
        ["scan", "--phi0", "0.6", "--from", "-3.14159", "--to", "3.14159", "--steps", "20001"],
        "f8cdc783cace2d023f6454868bee91865a8b569784a9ae17a5f99197bc751278",
    ),
    (
        ["sample", "--phi0", "0.6", "--steps", "3", "--shots", "4000000", "--order", "both", "--seed", "1"],
        "aefa17dfd3b6204fffa684eff7487b9bb1b2376f6e1166137da4056d6467e6c6",
    ),
    (
        ["sample", "--phi0", "0.6", "--steps", "2001", "--shots", "1000", "--order", "both", "--seed", "1"],
        "7afd57f51bfc139b33b46ed85aadb00e1c5ecfd0dd887ec1161b8c2412127101",
    ),
    (
        ["verify", "--shots", "200000", "--seed", "1"],
        "8e77578f5e28b7f5a3c7f3212ef6cf8b1f85e2b438f7eb8299903bfe612090ad",
    ),
]


IDS = [
    "scan", "sample-both", "sample-wp",
    "scan-wide-range", "scan-eigenstate", "scan-degrees", "verify", "verify-mc",
    "bench-scan-dense", "bench-sample-deep", "bench-sample-wide", "bench-verify-mc",
]
SAMPLED = [i for i, (argv, _) in enumerate(GOLDEN) if argv[0] == "sample" or "--shots" in argv]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=IDS)
def test_output_digest(argv, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("parts", [1, 2])
@pytest.mark.parametrize("argv, digest", [GOLDEN[i] for i in SAMPLED], ids=[IDS[i] for i in SAMPLED])
def test_sampled_digest_at_any_part_count(argv, digest, parts, capsys, monkeypatch):
    # the sampler splits its rows into one part per usable CPU; forced here
    ran = force_parts(monkeypatch, parts)
    test_output_digest(argv, digest, capsys)
    # sample-wp's 4 rows of 1000 shots, less than one block, run as one part
    assert max(ran) == (1 if "wp" in argv else parts)


def test_sample_wide_is_printed_without_percent(capsys, monkeypatch):
    # every value of the benchmark's 4002 rows of 1000 shots is printed by
    # format_rows in numpy: a value left to Python's "%" would give the
    # same bytes, only slower
    def refused(*args):
        raise AssertionError("printed by %")

    monkeypatch.setattr(output, "_splice", refused)
    test_output_digest(*GOLDEN[IDS.index("bench-sample-wide")], capsys)


@pytest.mark.parametrize("shots, digest", [
    ("94906266", "c1acafaf02399e6577e0c9c97b6704662e044c1adb6fac3eed7b23394e073bec"),
    # odd, so shots^2 rounds in float64 and float64 statistics would differ
    ("94906267", "39660d3912c4c8a261738735ef82db1d3afe7f4d423853cabe872b47bec33d48"),
])
def test_sample_above_the_exactness_bound(shots, digest, capsys):
    # one real row of more than EXACT_SHOTS shots (~0.5 s), whose
    # statistics row_statistics takes from the scalar forms
    assert measurement.EXACT_SHOTS == 94_906_265
    argv = ["sample", "--steps", "1", "--from", "0.5", "--to", "0.5", "--phi0", "0.1",
            "--order", "wp", "--shots", shots, "--seed", "5"]
    test_output_digest(argv, digest, capsys)


#: Child environments that pick another OpenBLAS kernel, or switch every
#: one of those SIMD levels off.
KERNELS = {
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "numpy-baseline-simd": {"NPY_DISABLE_CPU_FEATURES": " ".join(SIMD_LEVELS)},
}

#: Defines threshold_digest(): the digest of every input and output of
#: rng.draw_thresholds as the sampler calls it on sample-wide's 4002 rows
#: at five offsets.  A threshold that moved would change a count only if a
#: draw fell in its 2^11-word window (~2^-52 a shot), which the output
#: digests cannot show.
THRESHOLD_DIGEST = """
import hashlib
import numpy as np
from twopath import measurement, rng
from twopath.cli import RunConfig

def threshold_digest():
    digest, draw = hashlib.sha256(), measurement.draw_thresholds

    def recorded(row_odds):
        thresholds, certain = draw(row_odds)
        for array in (row_odds, thresholds, certain):
            digest.update(np.ascontiguousarray(array).tobytes())
        return thresholds, certain

    phis = np.repeat(next(RunConfig(phi0=0.6, steps=2001).grid()), 2)
    seeds = rng.child_seeds(1, np.arange(phis.size, dtype=np.uint64))
    measurement.draw_thresholds = recorded
    try:
        for phi0 in (0.6, 0.1, -1.1, 2.5, 0.0):
            # one shot a row: the thresholds do not depend on the shots
            measurement.sequential_counts(["pw", "wp"] * 2001, phis, np.full(phis.size, phi0), 1, seeds)
    finally:
        measurement.draw_thresholds = draw
    return digest.hexdigest()
"""

#: Prints the digest of each argv's output, the sampler's threshold digest,
#: then the numpy SIMD levels in use.
DIGEST_CHILD = THRESHOLD_DIGEST + """
import contextlib, hashlib, io, json, sys
from numpy._core import _multiarray_umath as umath
from twopath.cli import main
digests = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    digests.append(hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest())
print(json.dumps([digests, threshold_digest(), [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]]]))
"""


@functools.cache
def threshold_digest() -> str:
    """THRESHOLD_DIGEST's digest in this process."""
    namespace: dict = {}
    exec(THRESHOLD_DIGEST, namespace)
    return namespace["threshold_digest"]()


@pytest.mark.parametrize("kernel", KERNELS)
def test_digests_do_not_depend_on_the_kernel(kernel):
    # the bytes are a function of the seed alone, not of the BLAS kernel
    # or the SIMD loops numpy picks for this CPU; nor are the sampler's
    # thresholds, which this process draws at its own SIMD level
    pinned = [GOLDEN[IDS.index(name)] for name in ("scan", "verify", "verify-mc", "sample-wp")]
    env = {**os.environ, "PYTHONPATH": str(Path(twopath.__file__).resolve().parents[1]), **KERNELS[kernel]}
    argv = [sys.executable, "-c", DIGEST_CHILD, json.dumps([a for a, _ in pinned])]
    run = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")
    digests, thresholds, simd = json.loads(run.stdout)
    assert digests == [d for _, d in pinned]
    assert thresholds == threshold_digest()
    if "NPY_DISABLE_CPU_FEATURES" in KERNELS[kernel]:
        assert simd == []
