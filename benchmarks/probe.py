"""Host-speed probe: scale timings to a fixed reference speed.

On a shared host the same CLI call can take 1.5 s or 2.8 s for minutes
at a time: another tenant's load slows this process's CPU without any
preemption (CPU time equals wall time, steal time stays 0).  A raw wall
time then measures the neighbours.  To take them out, a fixed piece of
work that does not touch twopath (the *probe*) is timed while the
program runs, and each timing is scaled by how much slower than its
reference time the probe ran meanwhile:

    scaled = raw * REFERENCE_S / mean(probe times during the call)

``HostProbe.sampling()`` runs the probe from a ``SIGALRM`` handler every
``INTERVAL_S`` seconds during a call, plus once just before and once
just after it, and reports the handler's own time so that it can be
taken out of the raw wall time.  The probe mixes the three kinds of work
the workloads do: interpreted Python, small numpy linear algebra, and a
large-array draw and compare.

The reference times are the probe's medians on the 2-vCPU Intel Xeon
host the benchmark was tuned on, so scaled times read close to the raw
ones there.  Both sides of a comparison run the same probe, so its
reference only fixes the scale, not a ratio.

``child.py`` times the import of twopath, and so of numpy and
dataclasses, after importing this module, so it imports neither at the
top; the child probes with ``python_work`` alone.
"""

from __future__ import annotations

import contextlib
import signal
import time

#: Seconds between in-call probe samples.
INTERVAL_S = 0.05
#: Median time of one ``HostProbe`` sample on the tuning host.
REFERENCE_S = 0.9e-3
#: Median time of one ``python_work()`` on the tuning host.
PYTHON_REFERENCE_S = 0.17e-3


def python_work() -> int:
    """Interpreted-Python part of the probe; needs no import."""
    total = 0
    for i in range(2000):
        total += i * i % 7
    return total


def time_python_work(repeats: int) -> float:
    """Mean seconds of one ``python_work()`` over ``repeats`` runs."""
    start = time.perf_counter()
    for _ in range(repeats):
        python_work()
    return (time.perf_counter() - start) / repeats


class Sampling:
    """Probe samples taken around and during one timed call."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.handler_s = 0.0

    def scale(self, raw_s: float) -> float:
        """``raw_s`` less the in-call probe time, at the reference speed."""
        mean = sum(self.samples) / len(self.samples)
        return (raw_s - self.handler_s) * REFERENCE_S / mean


class HostProbe:
    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._matrix = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
        self._vector = np.array([0.6, 0.8j])
        self._generator = np.random.Generator(np.random.PCG64(5))

    def sample(self) -> float:
        """Seconds for one run of the probe work."""
        np = self._np
        start = time.perf_counter()
        python_work()
        for _ in range(20):
            np.linalg.eigh(self._matrix)
            np.vdot(self._vector, self._matrix @ self._vector)
        int((self._generator.random(40_000) < 0.3).sum())
        return time.perf_counter() - start

    @contextlib.contextmanager
    def sampling(self):
        """Sample the probe while the body runs; yields a ``Sampling``.

        The body's raw time must be taken inside the ``with`` block; the
        samples before and after the body fall outside it.
        """
        taken = Sampling()

        def handler(signum, frame):
            start = time.perf_counter()
            taken.samples.append(self.sample())
            taken.handler_s += time.perf_counter() - start

        taken.samples.append(self.sample())
        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield taken
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        taken.samples.append(self.sample())
