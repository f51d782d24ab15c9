"""Ideal two-path interferometer toolkit.

Derives the wave observable from the complementarity requirement alone,
evaluates the Robertson uncertainty bound it induces, and checks by exact
algebra and seeded Monte Carlo that uncertainty and complementarity
enforce each other in a two-mode interferometer.

Each exported name is resolved on first use, by importing its module
then, so ``import twopath.cli`` loads only what the subcommand runs.
"""

import importlib

__version__ = "0.1.0"

#: The exported names, by the module that defines them.
_EXPORTS = {
    "derive_wave_eigenbasis": "complementarity",
    "is_complementary": "complementarity",
    "path_eigenbasis": "complementarity",
    "balanced_amplitudes": "interferometer",
    "balanced_state": "interferometer",
    "interference_scan": "interferometer",
    "wave_operator": "interferometer",
    "MeasurementOrder": "measurement",
    "measure": "measurement",
    "sequential_experiment": "measurement",
    "InvariantViolation": "qalgebra",
    "expectation": "qalgebra",
    "expectations": "qalgebra",
    "RandomStream": "rng",
    "duality_report": "uncertainty",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """An exported name, from its module (PEP 562)."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
