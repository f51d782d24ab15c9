"""Golden digests: the CLI's output bytes for fixed configurations.

Rerunning the same code only shows that a run is deterministic; these
digests also show whether a change to the code moved any output byte.
A change that alters output on purpose re-pins the affected digest and
says which columns moved and why.

History: the `scan` and `verify` digests date from before the sampler
was rebuilt around counts and are unchanged by it.  The two `sample`
digests were re-pinned with that rebuild, whose variance columns are the
exact 4 n+ n- / n^2 rounded once instead of np.var's value (a few ulp
apart); every other sample column kept its bytes.
"""

import hashlib

import pytest

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
        ["verify", "--shots", "20000"],
        "f73049de89d9ebecf9438c47d75842b8f4c55252d204f3b04cf5317edf801a1d",
    ),
]


@pytest.mark.parametrize(
    "argv, digest", GOLDEN, ids=["scan", "sample-both", "sample-wp", "verify-mc"]
)
def test_output_digest(argv, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
