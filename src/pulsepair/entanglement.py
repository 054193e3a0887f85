"""Partial transpose, negativity, and Werner-line classification.

Negativity here is E = sum_i |mu_i| - 1 over the four eigenvalues mu_i of
the partial transpose of rho.  Since the partial transpose preserves the
trace, E equals twice the total weight of negative mu_i, vanishes iff the
partial transpose is positive, and reaches 1 on maximally entangled
two-qubit states.  Tiny negative round-off is clamped to zero; the raw
value is kept on the result for inspection.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import TraceNotOne
from .pauli import hermitian_eigenvalues, hermitian_eigenvalues_batch
from .evolution import CorrelationState, assemble_density

__all__ = [
    "WernerClass",
    "NegativityResult",
    "partial_transpose_b",
    "negativity",
    "negativity_of_state",
    "negativity_batch",
    "classify_werner",
]

TRACE_TOL = 1e-9
CLAMP_TOL = 1e-12
_PHYSICAL_TOL = 1e-10


class WernerClass(Enum):
    ENTANGLED = "entangled"
    SEPARABLE = "separable"
    UNPHYSICAL = "unphysical"


@dataclass(frozen=True)
class NegativityResult:
    """Eigenvalues mu_i of the partial transpose plus the measure built from them.

    ``value`` is clamped to zero below CLAMP_TOL; ``raw_value`` is the
    unclamped sum; ``imag_residue`` carries the LITERAL-mode diagnostic of
    whatever evolution produced the state (0.0 otherwise).
    """

    eigenvalues: tuple[float, float, float, float]
    value: float
    raw_value: float
    imag_residue: float = 0.0


def partial_transpose_b(rho) -> np.ndarray:
    """Transpose the second qubit's indices: ((i,j),(k,l)) -> ((i,l),(k,j))."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {rho.shape}")
    return rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def _clamp(raw: float) -> float:
    return 0.0 if raw < CLAMP_TOL else raw


def negativity(rho, imag_residue: float = 0.0) -> NegativityResult:
    """Negativity of a Hermitian unit-trace 4x4 density matrix.

    Raises TraceNotOne if the trace is off by more than 1e-9 and
    NonHermitianInput (via the eigensolver) if rho is not Hermitian.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    trace = rho.trace()
    if not abs(trace - 1.0) <= TRACE_TOL:
        raise TraceNotOne(f"trace {trace} differs from 1 beyond {TRACE_TOL:.1e}")
    mu = hermitian_eigenvalues(partial_transpose_b(rho))
    raw = float(np.abs(mu).sum() - 1.0)
    return NegativityResult(
        eigenvalues=tuple(float(v) for v in mu),
        value=_clamp(raw),
        raw_value=raw,
        imag_residue=imag_residue,
    )


def negativity_of_state(state: CorrelationState) -> NegativityResult:
    """Assemble the state's density matrix and measure its negativity."""
    return negativity(assemble_density(state), imag_residue=state.imag_residue)


def negativity_batch(rhos) -> np.ndarray:
    """Clamped negativity values for a stack of density matrices.

    Same two checks and the same eigensolver as ``negativity``; the batch
    form exists so a sweep can diagonalize hundreds of partial transposes
    in one call.  Per-matrix results are bit-identical to the scalar path.
    """
    rhos = np.asarray(rhos, dtype=np.complex128)
    if rhos.ndim != 3 or rhos.shape[1:] != (4, 4):
        raise ValueError(f"expected shape (n, 4, 4), got {rhos.shape}")
    traces = np.einsum("nii->n", rhos)
    worst = np.abs(traces - 1.0).max() if len(rhos) else 0.0
    # written so that a NaN trace fails the gate too
    if not worst <= TRACE_TOL:
        raise TraceNotOne(f"trace off by {worst:.3e}, beyond {TRACE_TOL:.1e}")
    pt = rhos.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
    mu = hermitian_eigenvalues_batch(pt)
    raw = np.abs(mu).sum(axis=1) - 1.0
    return np.where(raw < CLAMP_TOL, 0.0, raw)


def classify_werner(x: float) -> WernerClass:
    """Classify the Werner-line state with c = (x, x, x) by computed spectrum.

    Unphysical if the density matrix has an eigenvalue below -1e-10
    (x outside [-1, 1/3]); otherwise entangled iff the negativity is
    positive.  The boundary between entangled and separable sits at
    x = -1/3 in this parametrization.
    """
    rho = assemble_density(CorrelationState.diagonal(x, x, x))
    if hermitian_eigenvalues(rho)[0] < -_PHYSICAL_TOL:
        return WernerClass.UNPHYSICAL
    if negativity(rho).value > CLAMP_TOL:
        return WernerClass.ENTANGLED
    return WernerClass.SEPARABLE
