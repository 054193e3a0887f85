"""Partial transpose, negativity, and Werner-line classification.

Negativity here is E = sum_i |mu_i| - 1 over the four eigenvalues mu_i of
the partial transpose of rho.  Since the partial transpose preserves the
trace, E equals twice the total weight of negative mu_i, vanishes iff the
partial transpose is positive, and reaches 1 on maximally entangled
two-qubit states.  Tiny negative round-off is clamped to zero; the raw
value is kept on the result for inspection.
zero_bloch_negativity_batch takes the mu_i of a state with zero Bloch
vectors in closed form, from the singular values of its 3x3 correlation
tensor alone.  A drive on resonance (an exponential pulse, or a rectangle
with Delta = 0) turns its qubit about x, so both coefficient maps fix the x
axis and the tensor splits into T_xx and a 2x2 yz block; such tensors take
those singular values in closed form, and any other tensor, such as one of a
detuned drive, goes to LAPACK's SVD.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import TraceNotOne, UnphysicalState
from .pauli import hermitian_eigenvalues_batch
from .evolution import InitialState, assemble_density_batch

__all__ = [
    "WernerClass",
    "NegativityResult",
    "partial_transpose_b",
    "negativity",
    "negativity_batch",
    "zero_bloch_negativity_batch",
    "classify_werner",
]

TRACE_TOL = 1e-9
CLAMP_TOL = 1e-12


class WernerClass(Enum):
    ENTANGLED = "entangled"
    SEPARABLE = "separable"
    UNPHYSICAL = "unphysical"


@dataclass(frozen=True)
class NegativityResult:
    """Eigenvalues mu_i of the partial transpose plus the measure built from them.

    ``value`` is clamped to zero below CLAMP_TOL; ``raw_value`` is the
    unclamped sum.
    """

    eigenvalues: tuple[float, float, float, float]
    value: float
    raw_value: float


def partial_transpose_b(rho) -> np.ndarray:
    """Transpose the second qubit's indices: ((i,j),(k,l)) -> ((i,l),(k,j)).

    Takes one 4x4 matrix or a stack of shape (n, 4, 4).
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected shape (4, 4) or (n, 4, 4), got {rho.shape}")
    return rho.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(rho.shape)


def _clamp(raw: np.ndarray) -> np.ndarray:
    return np.where(raw < CLAMP_TOL, 0.0, raw)


def _spectra(rhos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Partial-transpose eigenvalues and unclamped negativities of an (n, 4, 4) stack."""
    traces = np.einsum("nii->n", rhos)
    worst = np.abs(traces - 1.0).max() if len(rhos) else 0.0
    # written so that a NaN trace fails the gate too
    if not worst <= TRACE_TOL:
        raise TraceNotOne(f"trace off by {worst:.3e}, beyond {TRACE_TOL:.1e}")
    mu = hermitian_eigenvalues_batch(partial_transpose_b(rhos))
    return mu, np.abs(mu).sum(axis=1) - 1.0


def negativity(rho) -> NegativityResult:
    """Negativity of a Hermitian unit-trace 4x4 density matrix.

    Raises TraceNotOne if the trace is off by more than 1e-9 and
    NonHermitianInput (via the eigensolver) if rho is not Hermitian.
    """
    mu, raw = _spectra(np.asarray(rho, dtype=np.complex128)[None])
    return NegativityResult(
        eigenvalues=tuple(float(v) for v in mu[0]),
        value=float(_clamp(raw[0])),
        raw_value=float(raw[0]),
    )


def negativity_batch(rhos) -> np.ndarray:
    """Clamped negativity values for a stack of density matrices.

    Same two checks and the same eigensolver as ``negativity``; the batch
    form exists so a sweep can diagonalize thousands of partial transposes
    in one call.  Per-matrix results are bit-identical to the scalar path.
    """
    rhos = np.asarray(rhos, dtype=np.complex128)
    if rhos.ndim != 3 or rhos.shape[1:] != (4, 4):
        raise ValueError(f"expected shape (n, 4, 4), got {rhos.shape}")
    return _clamp(_spectra(rhos)[1])


def zero_bloch_negativity_batch(tensors) -> np.ndarray:
    """Raw negativities of the states (1/4)(I + sum_kl T_kl sigma_k x sigma_l), (..., 3, 3) -> (...).

    Local rotations, which keep the partial-transpose spectrum, bring a real T
    to diag(t1, t2, t3): its singular values with the sign of det T on the
    smallest (Horodecki & Horodecki, PRA 54, 1838, 1996).  The spectrum is then
    (1 + t1 + t2 + t3)/4, (1 - t1 - t2 + t3)/4, (1 + t1 - t2 - t3)/4 and
    (1 - t1 + t2 - t3)/4, physical state or not.  The values are unclamped, as
    NegativityResult.raw_value.  A non-finite T raises TraceNotOne, as its
    density's trace would.

    The singular values take one of two routes, chosen per cell from T alone.
    An x-decoupled T, whose T_xy, T_xz, T_yx and T_zx are all zero (-0.0
    included), is block diagonal, so its singular values are exactly |T_xx| and
    those of its yz block [[a, b], [c, d]]: (hypot(a + d, c - b) +- hypot(a - d,
    c + b))/2, the second in magnitude, sorted descending as LAPACK's are.  Every
    other T goes to one stacked LAPACK np.linalg.svd, whose values replace the
    block formula's.
    """
    t = np.asarray(tensors, dtype=float)
    if t.shape[-2:] != (3, 3):
        raise ValueError(f"expected shape (..., 3, 3), got {t.shape}")
    if not np.isfinite(t).all():
        raise TraceNotOne("correlation tensor is not finite, so neither is the density trace")
    yy, yz, zy, zz = t[..., 1, 1], t[..., 1, 2], t[..., 2, 1], t[..., 2, 2]
    p, q = np.hypot(yy + zz, zy - yz), np.hypot(yy - zz, zy + yz)  # p**2 - q**2 = 4 det of the yz block
    a, b, c = np.abs(t[..., 0, 0]), 0.5 * (p + q), 0.5 * np.abs(p - q)  # b >= c
    s = np.stack((np.maximum(a, b), np.maximum(np.minimum(a, b), c), np.minimum(a, c)), axis=-1)
    coupled = t[..., [0, 0, 1, 2], [1, 2, 0, 0]].any(axis=-1)  # T_xy, T_xz, T_yx, T_zx; -0.0 is False
    s[coupled] = np.linalg.svd(t[coupled], compute_uv=False)
    t1, t2 = s[..., 0], s[..., 1]
    # det T as the triple product: LAPACK's LU warns on some subnormal entries
    det = np.einsum("...i,...i->...", t[..., 0, :], np.cross(t[..., 1, :], t[..., 2, :]))
    t3 = np.where(det < 0.0, -s[..., 2], s[..., 2])
    mu = np.stack((1.0 + t1 + t2 + t3, 1.0 - t1 - t2 + t3, 1.0 + t1 - t2 - t3, 1.0 - t1 + t2 - t3))
    return np.abs(0.25 * mu).sum(axis=0) - 1.0


def classify_werner(x: float) -> WernerClass:
    """Classify the Werner-line state with c = (x, x, x).

    Unphysical if InitialState.generalized_werner rejects it (a density
    eigenvalue below -1e-10, x outside [-1, 1/3], or x not finite);
    otherwise entangled iff the negativity is positive.  The boundary
    between entangled and separable sits at x = -1/3 in this
    parametrization.
    """
    try:
        state = InitialState.generalized_werner(x, x, x)
    except UnphysicalState:
        return WernerClass.UNPHYSICAL
    if negativity(assemble_density_batch(np.diag(state.correlations))).value > CLAMP_TOL:
        return WernerClass.ENTANGLED
    return WernerClass.SEPARABLE
