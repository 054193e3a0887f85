"""Entanglement dynamics of a laser-driven two-qubit pair.

A pair of qubits starts in a Bell-diagonal entangled state and each
qubit is (optionally) driven by its own classical pulse, rectangular or
exponentially decaying, in the rotating frame.  The package evaluates
the closed-form coefficient maps for the Heisenberg-picture Pauli
operators, evolves the correlation tensor, and scores entanglement by
negativity.  Exact-propagator and Runge-Kutta oracles cross-check every
analytic path, and sweep presets emit CSV curves over pulse area,
detuning, and decay-rate ratios.
"""

from .entanglement import (
    NegativityResult,
    WernerClass,
    classify_werner,
    negativity,
    negativity_batch,
    negativity_of_state,
    partial_transpose_b,
)
from .errors import (
    InvalidConfig,
    NonDiagonalInput,
    NonHermitianInput,
    OutOfWindow,
    PulsePairError,
    ResonanceRequired,
    StepTooLarge,
    TraceNotOne,
    UnknownPreset,
    UnphysicalState,
)
from .evolution import (
    CorrelationState,
    InitialState,
    adjoint_rotation,
    assemble_density,
    correlations_from_density,
    evolve_correlations,
    evolve_state,
    unitary_oracle,
)
from .config import format_config, parse_config
from .pulses import (
    CoefficientMatrix,
    CoefficientMode,
    PulseShape,
    PulseSpec,
    coefficient_map,
    envelope,
    pulse_angle,
)
from .scenarios import (
    DriveMode,
    GridSpec,
    SweepConfig,
    SweepFamily,
    SweepResult,
    detect_sudden_death,
    paper_figure_presets,
    run_sweep,
)
from .validation import CheckResult, run_validation

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "CoefficientMatrix",
    "CoefficientMode",
    "CorrelationState",
    "DriveMode",
    "GridSpec",
    "InitialState",
    "InvalidConfig",
    "NegativityResult",
    "NonDiagonalInput",
    "NonHermitianInput",
    "OutOfWindow",
    "PulsePairError",
    "PulseShape",
    "PulseSpec",
    "ResonanceRequired",
    "StepTooLarge",
    "SweepConfig",
    "SweepFamily",
    "SweepResult",
    "TraceNotOne",
    "UnknownPreset",
    "UnphysicalState",
    "WernerClass",
    "adjoint_rotation",
    "assemble_density",
    "classify_werner",
    "coefficient_map",
    "correlations_from_density",
    "detect_sudden_death",
    "envelope",
    "evolve_correlations",
    "evolve_state",
    "format_config",
    "negativity",
    "negativity_batch",
    "negativity_of_state",
    "paper_figure_presets",
    "parse_config",
    "partial_transpose_b",
    "pulse_angle",
    "run_sweep",
    "run_validation",
    "unitary_oracle",
    "__version__",
]
