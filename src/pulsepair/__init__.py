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

import types

from .entanglement import (
    NegativityResult,
    WernerClass,
    classify_werner,
    negativity,
    negativity_batch,
    partial_transpose_b,
)
from .errors import (
    AngleOverflow,
    ConvergenceFailure,
    InvalidConfig,
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
    InitialState,
    adjoint_rotation,
)
from .config import format_config, parse_config
from .pulses import (
    CoefficientMode,
    PulseShape,
    PulseSpec,
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

# every name imported above, and no submodule
__all__ = sorted(
    k for k, v in globals().items() if not k.startswith("_") and not isinstance(v, types.ModuleType)
)
__all__.append("__version__")
