"""Shared numerical tolerances used by every validity check in the package."""

from __future__ import annotations

from typing import NamedTuple


class Tolerances(NamedTuple):
    """Absolute tolerances for construction-time checks and for the limits
    of the named checks in :mod:`twopath.verify`.

    Double precision leaves several orders of magnitude of headroom over
    2x2 arithmetic, so structural residuals sit at 1e-12 while quantities
    that compound several operations (variances, squared overlaps) get a
    looser threshold.
    """

    norm: float = 1e-12  # state normalization residual
    herm: float = 1e-12  # Hermiticity residual, max-norm
    unit: float = 1e-12  # unitarity residual, max-norm
    var: float = 1e-10   # variance floor / saturation threshold
    comp: float = 1e-10  # complementarity overlap deviation
    spectrum: float = 1e-9  # eigenvalues of a +1/-1 observable, and their gap
    identity: float = 1e-12  # closed-form identity residual of a named check
    period: float = 1e-13  # W(phi0 + 2 pi) - W(phi0), max-norm
    contrast: float = 1e-9  # full-pipeline fringe contrast short of one
    finite_diff: float = 1e-6  # central-difference slope vs the analytic one
    window: float = 1.0  # sampled residual, in units of its acceptance window
    flag: float = 0.5  # pass/fail indicator residual, which is 0 or 1


TOL = Tolerances()
