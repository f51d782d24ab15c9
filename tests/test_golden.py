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
"""

import hashlib

import pytest

from support import force_parts
from twopath import measurement, output
from twopath.cli import main

GOLDEN = [
    (
        ["scan", "--phi0", "0.6", "--from", "-3.14159", "--to", "3.14159", "--steps", "73"],
        "6e95df4ab5fb33bb58a9ab01a0360608cf2ae5e0ca50b5cb29c7d4a000cf4cac",
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
        "af48edc1bb2bc9b620e2a4b90805b0ddd807b9f233948f81a10932236cc5af12",
    ),
    (
        # a single point, at a wave eigenstate: delta_w, bound and gap vanish
        ["scan", "--phi0", "0.6", "--from", "0.6", "--to", "0.6", "--steps", "1"],
        "41c6624009f22a0cb3911afb58fa0d84393b5b60a86477a9821e40395ca9b098",
    ),
    (
        ["scan", "--phi0", "30", "--from", "-180", "--to", "180", "--steps", "361", "--degrees"],
        "76d0f069d9b092c6d84f26f62c7c4720a48678d89c9cec988a79276e33d9b31b",
    ),
    (
        ["verify"],
        "db7c259d0f60ed0a4953a0694fe3bed392d3af0eb9e3f8cbdff48b567d7e4d56",
    ),
    (
        ["verify", "--shots", "20000"],
        "f73049de89d9ebecf9438c47d75842b8f4c55252d204f3b04cf5317edf801a1d",
    ),
    (
        ["scan", "--phi0", "0.6", "--from", "-3.14159", "--to", "3.14159", "--steps", "20001"],
        "e4d1fcef99476a0104c8a1beb91f87b818a1434a4a244eb8158c6726d3774f21",
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
        "e5b3883d10071d86832135e3294901c3ec6f01b5087f5de313a004de8b3bd5f1",
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
    # statistics the column forms take from the scalar ones
    assert measurement.EXACT_SHOTS == 94_906_265
    argv = ["sample", "--steps", "1", "--from", "0.5", "--to", "0.5", "--phi0", "0.1",
            "--order", "wp", "--shots", shots, "--seed", "5"]
    test_output_digest(argv, digest, capsys)
