"""Ideal two-path interferometer toolkit.

Derives the wave observable from the complementarity requirement alone,
evaluates the Robertson uncertainty bound it induces, and checks by exact
algebra and seeded Monte Carlo that uncertainty and complementarity
enforce each other in a two-mode interferometer.
"""

from .complementarity import (
    ComplementarityVerdict,
    EigenBasis,
    canonical_phase,
    check_mutual_zero_expectation,
    derive_wave_eigenbasis,
    eigenbasis_of,
    extract_phase_offset,
    is_complementary,
    observable_from_eigensystem,
    path_eigenbasis,
)
from .interferometer import (
    ScanResult,
    balanced_amplitudes,
    balanced_state,
    beam_splitter,
    interference_scan,
    path_operator,
    phase_shifter,
    wave_operator,
)
from .measurement import (
    CHI2_CRITICAL_1PCT,
    MeasurementOrder,
    MeasurementRecord,
    SequentialStats,
    born_sample,
    measure,
    sequential_experiment,
    uniformity_test,
)
from .qalgebra import (
    IDENTITY,
    InvariantViolation,
    KET_LOWER,
    KET_UPPER,
    BlochVector,
    Observable,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    StateVector,
    UnitaryGate,
    apply,
    bloch_vector,
    commutator,
    eig_hermitian,
    expectation,
    expectations,
    normalized,
    pauli_compose,
    pauli_decompose,
    states_equal,
    variance,
    variances,
)
from .rng import RandomStream, mix64
from .tolerances import TOL, Tolerances
from .uncertainty import (
    DualityTable,
    UncertaintyReport,
    duality_report,
    duality_table,
    general_bound_rhs,
    robertson_bound,
    sensitivity,
)
from .verify import (
    CheckResult,
    VerificationReport,
    format_report,
    run_verification,
)

__version__ = "0.1.0"
