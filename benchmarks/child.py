"""Fresh-interpreter probes; bench.py starts them one at a time.

    python child.py setup
        Time ``import twopath.cli`` plus ``build_parser()`` inside this
        process; report it with the process's peak RSS (the import-only
        baseline) and the mean time of ``probe.python_work`` just before
        and just after, from which bench.py scales it to the reference
        host speed.
    python child.py run OUT ARG...
        Run the CLI once on ARG...; stdout (verify's output) goes to OUT.
        Report the exit code and the process's peak RSS.

The report is one JSON line on the original stdout.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time

import probe

#: ``python_work`` runs before and after the timed import (~17 ms each).
PROBE_REPEATS = 100


def main(argv: list[str]) -> None:
    report = {}
    if argv[0] == "setup":
        before = probe.time_python_work(PROBE_REPEATS)
        start = time.perf_counter()
        import twopath.cli as cli

        cli.build_parser()
        report["setup_s"] = time.perf_counter() - start
        report["probe_s"] = (before + probe.time_python_work(PROBE_REPEATS)) / 2
    else:
        import twopath.cli as cli

        with open(argv[1], "w", encoding="utf-8", newline="") as out:
            with contextlib.redirect_stdout(out):
                report["code"] = cli.main(argv[2:])
    report["maxrss_kib"] = peak_rss_kib()
    sys.stdout.write(json.dumps(report) + "\n")


def peak_rss_kib() -> int:
    """This process's peak resident set, in KiB.

    ``ru_maxrss`` is not used where /proc is readable: Linux carries the
    parent's high-water mark into a child started by vfork and exec, so a
    child of a benchmark process that once held 300 MB would report
    300 MB.  ``VmHWM`` belongs to the child's own address space.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    main(sys.argv[1:])
