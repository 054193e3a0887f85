"""Partial transpose and negativity.

Negativity here is E = sum_i |mu_i| - 1 over the four eigenvalues mu_i of
the partial transpose of rho.  Since the partial transpose preserves the
trace, E equals twice the total weight of negative mu_i, vanishes iff the
partial transpose is positive, and reaches 1 on maximally entangled
two-qubit states.  Tiny negative round-off is clamped to zero.
zero_bloch_spectrum_batch takes the mu_i of a state with zero Bloch
vectors in closed form, from the singular values of its 3x3 correlation
tensor alone.  A drive on resonance (an exponential pulse, or a rectangle
with Delta = 0) turns its qubit about x, so both coefficient maps fix the x
axis and the tensor splits into T_xx and a 2x2 yz block; such tensors (the
diagonal ones of run_sweep, and those validate's preset checks evolve) take
those singular values in closed form, and any other tensor, such as one of a
detuned drive, goes to LAPACK's SVD.  _density_negativities is the one route
through the density.  The transpose of sigma_y is -sigma_y and those of sigma_x
and sigma_z are themselves, so the partial transpose of rho is the density of
T diag(1, -1, 1), built in one step; the mu_i come from each solver its caller
names (pauli's Jacobi for the sweep rounding guard, LAPACK's eigvalsh for
validate's oracles; the closed-form triangle's two share one build).
"""

import numpy as np

from .errors import TraceNotOne
from .evolution import assemble_density_batch

__all__ = [
    "zero_bloch_spectrum_batch",
    "zero_bloch_negativity_batch",
]

CLAMP_TOL = 1e-12


def _clamp(raw: np.ndarray) -> np.ndarray:
    return np.where(raw < CLAMP_TOL, 0.0, raw)


def _density_negativities(tensors, *solvers) -> list[np.ndarray]:
    """Clamped negativities of (N, 3, 3) tensors through partial transposes built once, per solver (N, 4, 4) -> (N, 4)."""
    transposes = assemble_density_batch(tensors * np.array([1.0, -1.0, 1.0]))  # rho^T_B = density of T diag(1, -1, 1)
    return [_clamp(np.abs(solve(transposes)).sum(axis=1) - 1.0) for solve in solvers]


def _triple_product(t: np.ndarray) -> np.ndarray:
    """det T of (..., 3, 3) as the triple product (LAPACK's LU warns on some subnormal entries), each row first
    scaled by a power of two to a largest magnitude in [0.5, 1): the sign stays, nothing overflows."""
    rows = np.moveaxis(t, (-2, -1), (0, 1)).copy()  # (3, 3, ...), so that max(axis=1) is fast
    (r11, r12, r13), (r21, r22, r23), (r31, r32, r33) = np.ldexp(rows, -np.frexp(np.abs(rows).max(axis=1))[1][:, None])
    return r11 * (r22 * r33 - r23 * r32) + r12 * (r23 * r31 - r21 * r33) + r13 * (r21 * r32 - r22 * r31)


@np.errstate(over="ignore", invalid="ignore")  # a spectrum past the float range raises at the end
def zero_bloch_spectrum_batch(tensors) -> np.ndarray:
    """Partial-transpose spectra of the states (1/4)(I + sum_kl T_kl sigma_k x sigma_l), (..., 3, 3) -> (..., 4).

    Local rotations, which keep the partial-transpose spectrum, bring a real T
    to diag(t1, t2, t3): its singular values with the sign of det T on the
    smallest (Horodecki & Horodecki, PRA 54, 1838, 1996).  The spectrum is then
    (1 + t1 + t2 + t3)/4, (1 - t1 - t2 + t3)/4, (1 + t1 - t2 - t3)/4 and
    (1 - t1 + t2 - t3)/4, in that order, physical state or not.  A non-finite T
    raises TraceNotOne, as its density's trace would, and so does a T whose
    spectrum overflows the float range, such as diag(1.7e308, 1.7e308, 1).

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
    if coupled.any():
        s[coupled] = np.linalg.svd(t[coupled], compute_uv=False)
    t1, t2 = s[..., 0], s[..., 1]
    t3 = np.where(_triple_product(t) < 0.0, -s[..., 2], s[..., 2])
    mu = np.stack((1.0 + t1 + t2 + t3, 1.0 - t1 - t2 + t3, 1.0 + t1 - t2 - t3, 1.0 - t1 + t2 - t3))
    if not np.isfinite(mu).all():
        raise TraceNotOne("correlation tensor is so large that its partial-transpose spectrum overflows")
    return np.moveaxis(0.25 * mu, 0, -1)  # a last-axis np.stack gives the same bits at twice the time


def zero_bloch_negativity_batch(tensors) -> np.ndarray:
    """Unclamped negativities of the zero_bloch_spectrum_batch spectra, (..., 3, 3) -> (...)."""
    return np.abs(zero_bloch_spectrum_batch(tensors)).sum(axis=-1) - 1.0

