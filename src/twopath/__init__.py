"""Ideal two-path interferometer toolkit.

Derives the wave observable from the complementarity requirement alone,
evaluates the Robertson uncertainty bound it induces, and checks by exact
algebra and seeded Monte Carlo that uncertainty and complementarity
enforce each other in a two-mode interferometer.
"""

from .complementarity import derive_wave_eigenbasis, is_complementary, path_eigenbasis
from .interferometer import (
    balanced_amplitudes,
    balanced_state,
    interference_scan,
    wave_operator,
)
from .measurement import MeasurementOrder, measure, sequential_experiment
from .qalgebra import InvariantViolation, expectation, expectations
from .rng import RandomStream
from .uncertainty import duality_report

__version__ = "0.1.0"
